package block

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Pages cross the wire between workers and the coordinator (§III: stages
// stream pages through exchanges). We serialize with encoding/gob over a
// small envelope; lazy and encoded blocks are materialized to flat blocks
// first since the remote side has no loader.

func init() {
	gob.Register(&Int64Block{})
	gob.Register(&Float64Block{})
	gob.Register(&BoolBlock{})
	gob.Register(&VarcharBlock{})
	gob.Register(&ArrayBlock{})
	gob.Register(&MapBlock{})
	gob.Register(&RowBlock{})
}

type wirePage struct {
	Blocks []Block
	N      int
}

// flatten converts encoded/lazy/view blocks into plain serializable blocks.
func flatten(b Block) Block {
	b = Unwrap(b)
	if m, ok := b.(Materializer); ok {
		return flatten(m.Materialize())
	}
	switch t := b.(type) {
	case *DictionaryBlock:
		return flatten(t.Decode())
	case *RunLengthBlock:
		pos := make([]int, t.N)
		return flatten(t.Single.Mask(pos))
	case *ArrayBlock:
		return &ArrayBlock{Elements: flatten(t.Elements), Offsets: t.Offsets, Nulls: t.Nulls}
	case *MapBlock:
		return &MapBlock{Keys: flatten(t.Keys), Values: flatten(t.Values), Offsets: t.Offsets, Nulls: t.Nulls}
	case *RowBlock:
		fields := make([]Block, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = flatten(f)
		}
		return &RowBlock{Fields: fields, Nulls: t.Nulls, N: t.N}
	default:
		return b
	}
}

// MaterializePage forces lazy/view blocks into concrete blocks. Results
// leaving the engine (to a client or across the wire) must not carry
// deferred loaders.
func MaterializePage(p *Page) *Page {
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = flatten(b)
	}
	return &Page{Blocks: blocks, N: p.N}
}

// EncodePage serializes a page for the wire. Lazy columns load here, so a
// column that cannot be read is this call's error.
func EncodePage(p *Page) (data []byte, err error) {
	defer func() {
		if lerr := RecoveredLoadError(recover()); lerr != nil {
			data, err = nil, lerr
		}
	}()
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = flatten(b)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wirePage{Blocks: blocks, N: p.N}); err != nil {
		return nil, fmt.Errorf("block: encode page: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePage deserializes a page from the wire.
func DecodePage(data []byte) (*Page, error) {
	var wp wirePage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wp); err != nil {
		return nil, fmt.Errorf("block: decode page: %w", err)
	}
	return &Page{Blocks: wp.Blocks, N: wp.N}, nil
}
