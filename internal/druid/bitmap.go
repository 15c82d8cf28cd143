package druid

import "math/bits"

// Bitmap is a growable bitset used for the inverted indexes ("in
// memory bitmap indices, inverted indices ... enabling sub-second query
// latency", §IV.B).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// grow extends the row capacity to at least n.
func (b *Bitmap) grow(n int) {
	if n <= b.n {
		return
	}
	if need := (n + 63) / 64; need > len(b.words) {
		w := make([]uint64, need)
		copy(w, b.words)
		b.words = w
	}
	b.n = n
}

// Set marks row i, growing the bitmap if i is beyond its capacity (mutable
// segments append rows after their index bitmaps were created).
func (b *Bitmap) Set(i int) {
	if i >= b.n {
		b.grow(i + 1)
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Len returns the row capacity.
func (b *Bitmap) Len() int { return b.n }

// Count returns the number of set rows.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or unions in place, growing to the other bitmap's capacity if larger.
func (b *Bitmap) Or(o *Bitmap) {
	if o.n > b.n {
		b.grow(o.n)
	}
	for i := range o.words {
		b.words[i] |= o.words[i]
	}
}

// Clone copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// ForEach calls fn for every set row in ascending order; stops early if fn
// returns false.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi<<6 + bit) {
				return
			}
			w &= w - 1
		}
	}
}
