package vector

// SelectTrue appends to sel the positions in [0, n) where the boolean view
// is true and non-null (SQL WHERE semantics over an evaluated predicate).
func SelectTrue(v *View, n int, sel []int) []int {
	switch {
	case v.Const:
		if i := v.at(0); i >= 0 && v.B[i] {
			for r := 0; r < n; r++ {
				sel = append(sel, r)
			}
		}
	case v.Ids == nil && v.Nulls == nil:
		for r, x := range v.B[:n] {
			if x {
				sel = append(sel, r)
			}
		}
	default:
		for r := 0; r < n; r++ {
			if i := v.at(r); i >= 0 && v.B[i] {
				sel = append(sel, r)
			}
		}
	}
	return sel
}
