package fault

import (
	"bytes"
	"io"
	"net/http"
)

// Transport is an http.RoundTripper that consults an Injector before (and
// after) delegating to Base. Install it as the Transport of any HTTP client
// whose network hops should be chaos-testable — the cluster's ClientConfig
// threads it through every coordinator, gateway and client connection.
//
//lint:ignore reachability the faulty network chaos tests install as ClientConfig.Transport; binaries keep the default transport
type Transport struct {
	Injector *Injector
	// Base performs the real round trip; nil means http.DefaultTransport.
	Base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.Injector
	d := in.decideHTTP(req.URL.Host, req.URL.Path)

	if d.drop {
		in.Counters.Dropped.Add(1)
		return nil, &InjectedError{Op: "drop", Target: req.URL.Host}
	}
	if d.blackHole {
		// Hang until the client's timeout (or caller cancellation) fires:
		// the request is neither delivered nor answered, like a switch
		// silently eating packets.
		in.Counters.BlackHoled.Add(1)
		<-req.Context().Done()
		return nil, &InjectedError{Op: "black-hole", Target: req.URL.Host}
	}
	if d.delay > 0 {
		in.Counters.Delayed.Add(1)
		select {
		case <-in.clock().After(d.delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}

	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if d.lose {
		// The server answers in full; the answer goes nowhere.
		_, _ = io.Copy(io.Discard, resp.Body) // read out so the handler runs to its end
		_ = resp.Body.Close()                 // the answer is discarded whatever happens
		in.Counters.Lost.Add(1)
		return nil, &InjectedError{Op: "lose", Target: req.URL.Host}
	}
	if !d.corrupt {
		return resp, nil
	}

	// Corrupt: flip one byte of the response body at a seeded position.
	body, rerr := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	if rerr != nil || closeErr != nil || len(body) == 0 {
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	}
	in.Counters.Corrupted.Add(1)
	body[in.intn(len(body))] ^= 0xff
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}
