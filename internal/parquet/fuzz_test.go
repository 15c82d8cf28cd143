package parquet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// readAllRows drains a reader over data, materializing lazy columns as the
// engine's drivers do: a column that fails to load is the read's error.
func readAllRows(data []byte, legacy bool) (rows [][]any, err error) {
	defer func() {
		if lerr := block.RecoveredLoadError(recover()); lerr != nil {
			rows, err = nil, lerr
		}
	}()
	file := &fsys.BytesFile{Data: data}
	var next func() (*block.Page, error)
	if legacy {
		r, err := NewLegacyReader(file, nil)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		next = r.Next
	} else {
		r, err := NewReader(file, AllOptimizations(nil, nil))
		if err != nil {
			return nil, err
		}
		defer r.Close()
		next = r.Next
	}
	for {
		p, err := next()
		if errors.Is(err, io.EOF) {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		p = block.MaterializePage(p)
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
}

// fuzzSeedFiles are valid files of the shapes the decoders distinguish:
// flat and nested, nullable and repeated, dictionary-encoded and plain,
// every codec, both writers, several row groups.
func fuzzSeedFiles(t testing.TB) [][]byte {
	var out [][]byte
	write := func(s *Schema, rows [][]any, opts WriterOptions, native bool) {
		out = append(out, writeFile(t, s, rows, opts, native).Data)
	}
	flat, err := NewSchema([]string{"k", "v", "d", "b"}, []*types.Type{types.Bigint, types.Varchar, types.Double, types.Boolean})
	if err != nil {
		t.Fatal(err)
	}
	var flatRows [][]any
	for i := 0; i < 40; i++ {
		row := []any{int64(i * 7), fmt.Sprintf("v-%d", i%3), float64(i) / 4, i%2 == 0}
		if i%11 == 0 {
			row[i%4] = nil
		}
		flatRows = append(flatRows, row)
	}
	for _, codec := range []Codec{CodecNone, CodecSnappy, CodecGzip} {
		write(flat, flatRows, WriterOptions{Codec: codec, RowGroupRows: 16}, true)
	}
	write(flat, flatRows, WriterOptions{RowGroupRows: 64, DisableDictionary: true}, false)
	nested := tripSchema(t)
	write(nested, tripRows(), WriterOptions{RowGroupRows: 2}, true)
	write(nested, tripRows(), WriterOptions{Codec: CodecSnappy}, false)
	return out
}

// hostileDictionaryFiles are a valid file of a BIGINT, a VARCHAR and a
// DOUBLE column, 24 rows in one row group, with one dictionary made hostile
// each: an id past the end of the VARCHAR chunk's dictionary, a dictionary
// entry whose length runs past its page, and the DOUBLE chunk claiming a
// dictionary (its encoding byte and its footer). Their checked-in copies
// seed FuzzReadFile (testdata/fuzz/FuzzReadFile/dict-*).
func hostileDictionaryFiles(t testing.TB) map[string][]byte {
	s, err := NewSchema([]string{"k", "s", "d"}, []*types.Type{types.Bigint, types.Varchar, types.Double})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 24; i++ {
		rows = append(rows, []any{int64(i % 3), []string{"x", "y", "z"}[i%3], float64(i) / 2})
	}
	file := writeFile(t, s, rows, WriterOptions{}, true).Data
	meta, _, err := ReadFooter(&fsys.BytesFile{Data: file})
	if err != nil {
		t.Fatal(err)
	}
	strs, dbls := &meta.RowGroups[0].Chunks[1], &meta.RowGroups[0].Chunks[2]
	if !strs.Dictionary || dbls.Dictionary {
		t.Fatalf("want s dictionary-encoded and d plain: %+v", meta.RowGroups[0].Chunks)
	}
	// A data page is the entry count (one byte for 24), a definition level
	// per entry, the encoding byte and then the values; a dictionary page is
	// the entry count and then the entries.
	const values = 1 + 24 + 1
	out := map[string][]byte{}
	bad := bytes.Clone(file)
	bad[strs.DataOffset+values] = 0x7f // id 127 of a 3-entry dictionary
	out["dict-id-out-of-range"] = bad
	bad = bytes.Clone(file)
	bad[strs.DictOffset+1] = 0x7f // the first entry is 127 bytes long
	out["dict-entry-past-page"] = bad
	bad = bytes.Clone(file)
	bad[dbls.DataOffset+values-1] = 1
	dbls.Dictionary, dbls.DictOffset, dbls.DictLen = true, strs.DictOffset, strs.DictLen
	out["dict-encoded-double"] = withFooter(t, bad, meta).Data
	return out
}

// Hostile dictionaries are each reader's error — for the columnar reader
// also behind a pushed predicate on the column, where the dictionary-pushdown
// probe reads the dictionary first — and never a panic.
func TestHostileDictionaryPages(t *testing.T) {
	for name, data := range hostileDictionaryFiles(t) {
		for _, legacy := range []bool{false, true} {
			if _, err := readAllRows(data, legacy); err == nil || !strings.HasPrefix(err.Error(), "parquet: ") {
				t.Errorf("%s (legacy %v): got %v, want the reader's error", name, legacy, err)
			}
		}
		column := "s"
		if name == "dict-encoded-double" {
			column = "d"
		}
		pred := expr.Comparison{Column: column, Op: expr.OpEq, Values: []any{"y"}}
		if column == "d" {
			pred.Values = []any{1.5}
		}
		r, err := NewReader(&fsys.BytesFile{Data: data}, AllOptimizations([]string{"k"}, []expr.Comparison{pred}))
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = r.Next()
		}
		if !strings.HasPrefix(err.Error(), "parquet: ") {
			t.Errorf("%s, predicate %s: got %v, want the reader's error", name, pred, err)
		}
	}
}

// FuzzReadFile feeds both readers a file with arbitrary bytes changed —
// chunk bytes and footer alike. The columnar reader and the legacy reader
// return the same rows or both refuse the file: no panic, no hang, and no
// allocation beyond a small multiple of the input (a footer may claim any
// number of rows and any range; checkRowGroups holds it to what the file's
// bytes can carry before anything is sized by it).
func FuzzReadFile(f *testing.F) {
	for _, file := range fuzzSeedFiles(f) {
		f.Add(file)
		// The same file with one byte changed in a chunk, and one in the
		// footer: both sides of the format from the first run on.
		for _, at := range []int{len(file) / 3, len(file) - 40} {
			bad := append([]byte{}, file...)
			bad[at] ^= 0x5a
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("beyond the size any seed reaches")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, gotErr := readAllRows(data, false)
		want, wantErr := readAllRows(data, true)
		runtime.ReadMemStats(&after)
		// Gzip can expand a byte a thousandfold and the assembled rows box
		// every value: the bound is loose on purpose. What it excludes is an
		// allocation sized by a number the file merely claims.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20+4096*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("the readers disagree on whether the file is readable:\ncolumnar: %v\nlegacy:   %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(normalizeRows(got), normalizeRows(want)) {
			t.Fatalf("the readers disagree over the rows:\ncolumnar %v\nlegacy   %v", got, want)
		}
	})
}
