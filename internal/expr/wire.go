package expr

import (
	"fmt"

	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// The binary form of expressions, boxed values and pushed comparisons, as
// plan fragments and connector handles carry them to workers (built on
// internal/frame). An expression goes by a tag per kind; a value by a tag per
// boxed Go type — the block boxing convention's nil, int64, float64, bool,
// string, []any (array or row) and [][2]any (map entries).

// maxWireDepth bounds how deeply an expression or a value read from the wire
// may nest, so a hostile document cannot recurse the reader off its stack.
// SQL the analyzer accepts nests far less.
const maxWireDepth = 512

const (
	exprNil byte = iota
	exprConstant
	exprVariable
	exprCall
	exprSpecialForm
	exprLambda
)

const (
	valueNil byte = iota
	valueInt64
	valueFloat64
	valueFalse
	valueTrue
	valueString
	valueList
	valueEntries
)

// AppendValue appends one boxed value. A value of any other Go type is a bug
// in whatever built the plan, and panics.
func AppendValue(dst []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(dst, valueNil)
	case int64:
		return frame.AppendVarint(append(dst, valueInt64), v)
	case float64:
		return frame.AppendFloat64(append(dst, valueFloat64), v)
	case bool:
		if v {
			return append(dst, valueTrue)
		}
		return append(dst, valueFalse)
	case string:
		return frame.AppendString(append(dst, valueString), v)
	case []any:
		dst = frame.AppendUvarint(append(dst, valueList), uint64(len(v)))
		for _, x := range v {
			dst = AppendValue(dst, x)
		}
		return dst
	case [][2]any:
		dst = frame.AppendUvarint(append(dst, valueEntries), uint64(len(v)))
		for _, kv := range v {
			dst = AppendValue(AppendValue(dst, kv[0]), kv[1])
		}
		return dst
	}
	panic(fmt.Sprintf("expr: no binary form for a boxed %T", v))
}

// ReadValue reads what AppendValue wrote.
func ReadValue(r *frame.Reader) any { return readValue(r, 0) }

func readValue(r *frame.Reader, depth int) any {
	if depth > maxWireDepth {
		r.Fail(fmt.Errorf("expr: a value nested deeper than %d", maxWireDepth))
		return nil
	}
	switch tag := r.Byte(); tag {
	case valueNil:
		return nil
	case valueInt64:
		return r.Varint()
	case valueFloat64:
		return r.Float64()
	case valueFalse:
		return false
	case valueTrue:
		return true
	case valueString:
		return r.Str()
	case valueList:
		v := make([]any, r.Count())
		for i := range v {
			v[i] = readValue(r, depth+1)
		}
		return v
	case valueEntries:
		v := make([][2]any, r.Count())
		for i := range v {
			v[i][0] = readValue(r, depth+1)
			v[i][1] = readValue(r, depth+1)
		}
		return v
	default:
		r.Fail(fmt.Errorf("expr: unknown value tag %d", tag))
		return nil
	}
}

// AppendExpr appends e (nil allowed) by its kind's tag.
func AppendExpr(dst []byte, e RowExpression) []byte {
	switch e := e.(type) {
	case nil:
		return append(dst, exprNil)
	case *Constant:
		dst = AppendValue(append(dst, exprConstant), e.Value)
		return types.AppendType(dst, e.Type)
	case *Variable:
		dst = frame.AppendString(append(dst, exprVariable), e.Name)
		return types.AppendType(frame.AppendVarint(dst, int64(e.Channel)), e.Type)
	case *Call:
		dst = frame.AppendString(append(dst, exprCall), e.Handle.Name)
		dst = frame.AppendStrings(dst, e.Handle.ArgTypes)
		dst = frame.AppendString(dst, e.Handle.ReturnType)
		return types.AppendType(appendExprs(dst, e.Args), e.Ret)
	case *SpecialForm:
		dst = frame.AppendString(append(dst, exprSpecialForm), string(e.Form))
		return types.AppendType(appendExprs(dst, e.Args), e.Ret)
	case *Lambda:
		dst = frame.AppendStrings(append(dst, exprLambda), e.Params)
		dst = frame.AppendUvarint(dst, uint64(len(e.ParamTypes)))
		for _, t := range e.ParamTypes {
			dst = types.AppendType(dst, t)
		}
		return AppendExpr(dst, e.Body)
	}
	panic(fmt.Sprintf("expr: no binary form for %T", e))
}

func appendExprs(dst []byte, es []RowExpression) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		dst = AppendExpr(dst, e)
	}
	return dst
}

// ReadExpr reads what AppendExpr wrote; nil when it wrote nil.
func ReadExpr(r *frame.Reader) RowExpression { return readExpr(r, 0) }

func readExpr(r *frame.Reader, depth int) RowExpression {
	if depth > maxWireDepth {
		r.Fail(fmt.Errorf("expr: an expression nested deeper than %d", maxWireDepth))
		return nil
	}
	switch tag := r.Byte(); tag {
	case exprNil:
		return nil
	case exprConstant:
		v := readValue(r, depth+1)
		return &Constant{Value: v, Type: types.ReadType(r)}
	case exprVariable:
		name := r.Str()
		ch := r.Int()
		return &Variable{Name: name, Channel: ch, Type: types.ReadType(r)}
	case exprCall:
		c := &Call{Handle: FunctionHandle{Name: r.Str(), ArgTypes: r.Strs(), ReturnType: r.Str()}}
		c.Args = readExprs(r, depth)
		c.Ret = types.ReadType(r)
		return c
	case exprSpecialForm:
		s := &SpecialForm{Form: Form(r.Str())}
		s.Args = readExprs(r, depth)
		s.Ret = types.ReadType(r)
		return s
	case exprLambda:
		l := &Lambda{Params: r.Strs()}
		if n := r.Count(); n > 0 {
			l.ParamTypes = make([]*types.Type, n)
			for i := range l.ParamTypes {
				l.ParamTypes[i] = types.ReadType(r)
			}
		}
		l.Body = readExpr(r, depth+1)
		return l
	default:
		r.Fail(fmt.Errorf("expr: unknown expression tag %d", tag))
		return nil
	}
}

// readExprs reads a list of non-nil expressions: every argument of a call or
// a special form is one.
func readExprs(r *frame.Reader, depth int) []RowExpression {
	n := r.Count()
	if n == 0 {
		return nil
	}
	es := make([]RowExpression, n)
	for i := range es {
		if es[i] = readExpr(r, depth+1); es[i] == nil {
			r.Fail(fmt.Errorf("expr: argument %d is missing", i))
			return nil
		}
	}
	return es
}

// AppendComparisons appends a list of pushed comparisons.
func AppendComparisons(dst []byte, cs []Comparison) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = frame.AppendVarint(frame.AppendString(dst, c.Column), int64(c.Op))
		dst = frame.AppendUvarint(dst, uint64(len(c.Values)))
		for _, v := range c.Values {
			dst = AppendValue(dst, v)
		}
	}
	return dst
}

// ReadComparisons reads what AppendComparisons wrote.
func ReadComparisons(r *frame.Reader) []Comparison {
	n := r.Count()
	if n == 0 {
		return nil
	}
	cs := make([]Comparison, n)
	for i := range cs {
		c := &cs[i]
		c.Column = r.Str()
		c.Op = CompareOp(r.Int())
		m := r.Count()
		if c.Op < OpEq || c.Op > OpIn || m == 0 || (m > 1 && c.Op != OpIn) {
			r.Fail(fmt.Errorf("expr: comparison %s with %d values", c.Op, m))
			return nil
		}
		c.Values = make([]any, m)
		for j := range c.Values {
			switch v := readValue(r, 1).(type) {
			case int64, float64, string, bool:
				c.Values[j] = v
			default:
				r.Fail(fmt.Errorf("expr: a comparison against a %T", v))
				return nil
			}
		}
	}
	return cs
}
