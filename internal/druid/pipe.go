package druid

import (
	"bytes"
	//lint:ignore nogob ROADMAP item 12(e): the broker query body moves to the frame codec
	"encoding/gob"
	"io"
	"net/http"
)

// pipeEncode gob-encodes v into an in-memory reader for an HTTP body.
func pipeEncode(v any) io.Reader {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(v) // in-memory write; type errors surface when the server decodes
	return &buf
}

func readError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best-effort error detail
	return string(bytes.TrimSpace(data))
}
