// Package fixture imports encoding/gob twice: once plainly (a finding) and
// once under a suppression that names the item removing it (silent).
package fixture

import (
	"bytes"
	"encoding/gob"
)

// Encode is what the rule keeps out of the query path.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}
