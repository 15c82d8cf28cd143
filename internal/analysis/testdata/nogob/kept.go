package fixture

import (
	//lint:ignore nogob the footer moves to the binary codec with its own item
	"encoding/gob"
	"io"
)

// Decode is an importer that stays, with its reason.
func Decode(r io.Reader, v any) error { return gob.NewDecoder(r).Decode(v) }
