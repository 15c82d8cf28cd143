package block

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// TestEncodePageKeepsEncodedBlocks: dictionary and run-length columns cross
// the codec as what they are and cost fewer bytes than their flat form; a
// dictionary larger than its ids is gathered flat; lazy columns are loaded.
func TestEncodePageKeepsEncodedBlocks(t *testing.T) {
	cities := FromValues(types.Varchar, "san francisco", "new york city")
	ids := make([]int32, 256)
	for i := range ids {
		ids[i] = int32(i % 2)
	}
	p := NewPage(
		&DictionaryBlock{Dictionary: cities, Ids: ids},
		NewRunLengthBlock(SingleValue(types.Bigint, int64(7)), len(ids)),
		NewLazyBlock(len(ids), func() Block { return &DictionaryBlock{Dictionary: cities, Ids: ids} }),
		// A one-id view of the two-entry dictionary (what a filter leaves), repeated.
		NewRunLengthBlock(&DictionaryBlock{Dictionary: cities, Ids: ids[3:4]}, len(ids)),
	)
	data, err := EncodePage(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePage(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Count(); i++ {
		if !reflect.DeepEqual(got.Row(i), p.Row(i)) {
			t.Fatalf("row %d = %v, want %v", i, got.Row(i), p.Row(i))
		}
	}
	if _, ok := got.Blocks[0].(*DictionaryBlock); !ok {
		t.Errorf("dictionary column decoded as %T", got.Blocks[0])
	}
	if _, ok := got.Blocks[1].(*RunLengthBlock); !ok {
		t.Errorf("run-length column decoded as %T", got.Blocks[1])
	}
	if _, ok := got.Blocks[2].(*DictionaryBlock); !ok {
		t.Errorf("lazy dictionary column decoded as %T", got.Blocks[2])
	}
	rle, ok := got.Blocks[3].(*RunLengthBlock)
	if !ok {
		t.Fatalf("run length over a dictionary view decoded as %T", got.Blocks[3])
	}
	if _, ok := rle.Single.(*VarcharBlock); !ok {
		t.Errorf("a dictionary larger than its ids decoded as %T, want it gathered flat", rle.Single)
	}
	flat, err := EncodePage(MaterializePage(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(data)*4 > len(flat) {
		t.Errorf("encoded page is %d bytes beside %d flat: the encodings bought nothing", len(data), len(flat))
	}
	for c, b := range MaterializePage(got).Blocks {
		switch b.(type) {
		case *VarcharBlock, *Int64Block:
		default:
			t.Errorf("MaterializePage left column %d as %T", c, b)
		}
	}
}

// TestDecodePageRejectsFlippedPayloadByte: one flipped byte inside an int64
// column's values is an error. (The gob codec decoded it into a page with a
// different number in it and no complaint.)
func TestDecodePageRejectsFlippedPayloadByte(t *testing.T) {
	p := NewPage(&Int64Block{Values: []int64{1000, 2000, 3000, 4000}})
	data, err := EncodePage(p)
	if err != nil {
		t.Fatal(err)
	}
	// The values are the last 32 bytes of the frame.
	for _, at := range []int{len(data) - 1, len(data) - 13, len(data) - 32} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x10
		if got, err := DecodePage(bad); err == nil {
			t.Errorf("byte %d flipped: decoded %v without an error", at, got.Row((at-(len(data)-32))/8))
		}
	}
	if _, err := DecodePage(data); err != nil {
		t.Fatalf("the untouched frame: %v", err)
	}
}

// fuzzSeedPages is one page per block kind, plus the empty shapes.
func fuzzSeedPages() []*Page {
	row := types.NewRow(types.Field{Name: "a", Type: types.Bigint}, types.Field{Name: "b", Type: types.NewArray(types.Varchar)})
	return []*Page{
		NewPage(FromValues(types.Bigint, int64(1), nil, int64(-3))),
		NewPage(FromValues(types.Double, 1.5, nil, -0.25)),
		NewPage(FromValues(types.Boolean, true, nil, false)),
		NewPage(FromValues(types.Varchar, "x", nil, "yz")),
		NewPage(FromValues(types.NewArray(types.Bigint), []any{int64(1), int64(2)}, nil, []any{})),
		NewPage(FromValues(types.NewMap(types.Varchar, types.Double), [][2]any{{"k", 1.0}}, nil, [][2]any{})),
		NewPage(FromValues(row, []any{int64(1), []any{"t"}}, nil, []any{nil, nil})),
		NewPage(&DictionaryBlock{Dictionary: FromValues(types.Varchar, "sf", "nyc"), Ids: []int32{0, 1, -1}}),
		NewPage(NewRunLengthBlock(SingleValue(types.Bigint, int64(7)), 3)),
		{N: 5},
		NewPage(),
	}
}

// FuzzDecodePage: any bytes decode to a page or to an error — no panic, and
// nothing allocated that the input's own size does not cover. A page that
// does decode encodes again and decodes to the same page.
func FuzzDecodePage(f *testing.F) {
	for _, p := range fuzzSeedPages() {
		data, err := EncodePage(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(data[:len(data)/2])
		badCRC := bytes.Clone(data)
		badCRC[5] ^= 0x01
		f.Add(badCRC)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		if err != nil {
			// Most mutations die at the checksum. Seal the input as a frame
			// of its own so the column decoder sees hostile bytes too.
			sealed := append(append([]byte{pageFormat}, make([]byte, frame.HeaderSize)...), data...)
			frame.Seal(sealed[1:])
			if p, err = DecodePage(sealed); err != nil {
				return
			}
			data = sealed
		}
		// Every decoded byte of a flat buffer was paid for by input: at
		// most 16 bytes (a string header per 4-byte offset) per byte read.
		if size := p.SizeBytes(); size > 64+16*len(data) {
			t.Fatalf("%d input bytes decoded into a page of %d", len(data), size)
		}
		if p.N > 1<<16 {
			return // a run length or column-less page: legal, but not worth walking
		}
		again, err := EncodePage(p)
		if err != nil {
			t.Fatalf("re-encoding a decoded page: %v", err)
		}
		q, err := DecodePage(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded page: %v", err)
		}
		// Encoding is a function of the values alone (NaN payloads
		// included), so equal pages are equal bytes.
		if twice, err := EncodePage(q); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("the page changed across a re-encode (%v):\n%x\n%x", err, again, twice)
		}
	})
}

// TestEncodePageConcurrently: encoders share pooled scratch buffers; a frame
// must be copied out of one before it goes back.
func TestEncodePageConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]int64, 2000+g)
			for i := range vals {
				vals[i] = int64(g)
			}
			p := NewPage(&Int64Block{Values: vals})
			for i := 0; i < 200; i++ {
				data, err := EncodePage(p)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := DecodePage(data); err != nil || got.Count() != len(vals) || got.Blocks[0].Value(len(vals)-1) != int64(g) {
					t.Errorf("goroutine %d: frame damaged by a concurrent encode: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
