package block

import (
	"bytes"
	"encoding/gob"
)

// The gob page codec the binary frames replaced, kept as a test-only oracle:
// it flattens every column first, so what it decodes is the flat reading of
// a page that the new codec must agree with value for value.

func init() {
	gob.Register(&Int64Block{})
	gob.Register(&Float64Block{})
	gob.Register(&BoolBlock{})
	gob.Register(&VarcharBlock{})
	gob.Register(&ArrayBlock{})
	gob.Register(&MapBlock{})
	gob.Register(&RowBlock{})
}

type gobPage struct {
	Blocks []Block
	N      int
}

func gobEncodePage(p *Page) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobPage{Blocks: MaterializePage(p).Blocks, N: p.N})
	return buf.Bytes(), err
}

func gobDecodePage(data []byte) (*Page, error) {
	var wp gobPage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wp); err != nil {
		return nil, err
	}
	return &Page{Blocks: wp.Blocks, N: wp.N}, nil
}
