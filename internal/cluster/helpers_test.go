package cluster

import (
	"fmt"
	"net/http"
)

func httpGet(url string) (*http.Response, error) { return http.Get(url) }

func errOr(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// unacknowledged is the bytes of the frames w holds for finished tasks whose
// acknowledgement has not come: all that w's pool may hold between
// statements, since the acknowledgements ride on the next task document.
func unacknowledged(w *Worker) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := int64(0)
	for _, t := range w.tasks {
		t.mu.Lock()
		if t.pool != nil {
			for _, f := range t.frames {
				n += int64(len(f))
			}
		}
		t.mu.Unlock()
	}
	return n
}
