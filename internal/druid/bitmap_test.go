package druid

import (
	"reflect"
	"testing"
)

// Edge cases not reachable through store_test.go's query paths.

// setRows lists the set rows in order.
func setRows(b *Bitmap) []int {
	var rows []int
	b.ForEach(func(i int) bool { rows = append(rows, i); return true })
	return rows
}

func TestBitmapEmptyAndOr(t *testing.T) {
	empty := NewBitmap(0)
	if empty.Len() != 0 || empty.Count() != 0 {
		t.Fatalf("empty bitmap: len=%d count=%d", empty.Len(), empty.Count())
	}
	empty.ForEach(func(int) bool { t.Fatal("ForEach visited a row of an empty bitmap"); return false })

	// OR with an empty bitmap is a no-op; OR into an empty bitmap grows it.
	c := NewBitmap(130)
	c.Set(64)
	c.Or(NewBitmap(0))
	if got := setRows(c); !reflect.DeepEqual(got, []int{64}) {
		t.Errorf("OR with empty changed bits: %v", got)
	}
	e := NewBitmap(0)
	e.Or(c)
	if got := setRows(e); e.Len() != 130 || !reflect.DeepEqual(got, []int{64}) {
		t.Errorf("OR into empty: len=%d rows=%v", e.Len(), got)
	}
}

func TestBitmapMismatchedLengths(t *testing.T) {
	long := NewBitmap(200)
	long.Set(10)
	long.Set(150)
	short := NewBitmap(64)
	short.Set(10)
	short.Set(63)

	// OR against a longer bitmap grows the receiver.
	o := short.Clone()
	o.Or(long)
	if o.Len() != 200 {
		t.Errorf("OR long: len = %d, want 200", o.Len())
	}
	if got := setRows(o); o.Count() != 3 || !reflect.DeepEqual(got, []int{10, 63, 150}) {
		t.Errorf("OR long: count=%d rows=%v", o.Count(), got)
	}
	// The clone was a copy: the source kept its own rows and capacity.
	if got := setRows(short); short.Len() != 64 || !reflect.DeepEqual(got, []int{10, 63}) {
		t.Errorf("OR into a clone changed its source: len=%d rows=%v", short.Len(), got)
	}
}

func TestBitmapOutOfRangeSetAndGet(t *testing.T) {
	b := NewBitmap(10)
	// Set beyond the capacity grows instead of panicking (mutable segments
	// append rows after the per-value bitmaps were created).
	b.Set(100)
	if b.Len() != 101 {
		t.Errorf("len after out-of-range set = %d, want 101", b.Len())
	}
	if got := setRows(b); !reflect.DeepEqual(got, []int{100}) {
		t.Errorf("rows after out-of-range set = %v, want [100]", got)
	}
}
