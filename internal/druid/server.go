package druid

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/fault"
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// Server exposes the store over HTTP (the broker endpoint a Presto-Druid
// connector talks to). A query is its binary form (AppendQuery) in the
// request body; its answer is one envelope (block.Envelope): a checksummed header, the result's
// column names (frame.AppendStrings), followed by the result's pages as
// block.EncodePage wrote them — dictionary columns stay dictionary-encoded on
// the wire, and every byte is under a checksum.
type Server struct {
	store *Store
	http  *http.Server
	ln    net.Listener
	addr  string
	once  sync.Once
}

// maxQueryBytes bounds the request body handleQuery decodes — a Query is a
// table name, a few column names and a few literals — and the tables and
// schema answers a client reads, which are lists of names.
const maxQueryBytes = 1 << 20

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	return &Server{store: store}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("druid: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/druid/v2/query", s.handleQuery)
	mux.HandleFunc("/druid/v2/tables", s.handleTables)
	mux.HandleFunc("/druid/v2/schema", s.handleSchema)
	s.http = &http.Server{Handler: mux}
	go s.http.Serve(ln)
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.addr }

// Close shuts the server down.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		if s.http != nil {
			err = s.http.Close()
		}
	})
	return err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	var q Query
	if err == nil {
		q, err = DecodeQuery(body)
	}
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad query: "+err.Error(), status)
		return
	}
	res, err := s.store.Execute(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	env, err := encodeResult(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(env.Len()))
	_, _ = env.WriteTo(w) // client went away mid-response; nothing to send it
}

func encodeResult(res *Result) (block.Envelope, error) {
	frames := make([][]byte, len(res.Pages))
	for i, p := range res.Pages {
		f, err := block.EncodePage(p)
		if err != nil {
			return block.Envelope{}, fmt.Errorf("druid: encode result page %d: %w", i, err)
		}
		frames[i] = f
	}
	return block.NewEnvelope(frame.AppendStrings(nil, res.Columns), frames), nil
}

// decodeResult checks and decodes what encodeResult wrote. Anything else — a
// truncation, a flipped byte, a header announcing frames that are not there —
// is an error, never a shorter result.
func decodeResult(body []byte) (*Result, error) {
	hdr, frames, err := block.ReadEnvelope(body)
	if err != nil {
		return nil, err
	}
	r := frame.NewReader(hdr)
	columns := r.Strs()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("druid: result header: %w", err)
	}
	pages, err := block.DecodePages(frames)
	if err != nil {
		return nil, err
	}
	for i, p := range pages {
		if len(p.Blocks) != len(columns) {
			return nil, fmt.Errorf("page %d has %d columns, the header names %d", i, len(p.Blocks), len(columns))
		}
	}
	return &Result{Columns: columns, Pages: pages}, nil
}

// handleTables answers the store's table names (frame.AppendStrings).
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, frame.AppendStrings(nil, s.store.Tables()))
}

// handleSchema answers a table's columns: their count, then each one's name
// and type (types.AppendType).
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	t, err := s.store.GetTable(r.URL.Query().Get("table"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	doc := frame.AppendUvarint(nil, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		doc = types.AppendType(frame.AppendString(doc, c.Name), c.Type)
	}
	writeDoc(w, doc)
}

func writeDoc(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	_, _ = w.Write(doc) // client went away mid-response; nothing to send it
}

// ---------------------------------------------------------------------------

// Client talks to a druid server; it is what the connector embeds.
type Client interface {
	Execute(q Query) (*Result, error)
	Tables() ([]string, error)
	Schema(table string) ([]Column, error)
}

// HTTPClient is a Client over the broker HTTP API.
type HTTPClient struct {
	BaseURL string
	HTTP    *http.Client
}

// NewHTTPClient targets a server address ("host:port").
func NewHTTPClient(addr string) *HTTPClient {
	return &HTTPClient{BaseURL: "http://" + addr, HTTP: http.DefaultClient}
}

// Execute implements Client.
func (c *HTTPClient) Execute(q Query) (*Result, error) {
	resp, err := c.HTTP.Post(c.BaseURL+"/druid/v2/query", "application/octet-stream", bytes.NewReader(AppendQuery(nil, q)))
	if err != nil {
		return nil, fmt.Errorf("druid: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("druid: query failed: %s", readError(resp))
	}
	body, err := readAnswer(resp, c.BaseURL, maxAnswerBytes)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(body)
	if err != nil {
		return nil, fmt.Errorf("druid: broker %s: result: %w", c.BaseURL, err)
	}
	return res, nil
}

// maxAnswerBytes bounds the answer to a query Execute reads from a broker.
// A pushed aggregation answers in groups and a select in the rows of the
// splits it reads, one time range; 64 MiB is far past either in this
// module's workloads, and an answer past it is refused, not read.
const maxAnswerBytes = 64 << 20

// AnswerTooLargeError is a broker's answer to a query that runs past what
// Execute reads (maxAnswerBytes).
type AnswerTooLargeError struct {
	Broker string
	Cap    int64
}

func (e *AnswerTooLargeError) Error() string {
	return fmt.Sprintf("druid: broker %s answered a query with over %d bytes", e.Broker, e.Cap)
}

// readAnswer reads resp's body, at most limit bytes of it: an answer that
// announces more is refused before a byte is read, and one that runs past
// limit unannounced is refused once limit+1 bytes have arrived.
func readAnswer(resp *http.Response, broker string, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, &AnswerTooLargeError{Broker: broker, Cap: limit}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("druid: broker %s: reading result: %w", broker, err)
	}
	if int64(len(body)) > limit {
		return nil, &AnswerTooLargeError{Broker: broker, Cap: limit}
	}
	return body, nil
}

// Tables implements Client.
func (c *HTTPClient) Tables() ([]string, error) {
	r, err := c.getDoc("/druid/v2/tables")
	if err != nil {
		return nil, err
	}
	out := r.Strs()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("druid: broker %s: tables: %w", c.BaseURL, err)
	}
	return out, nil
}

// Schema implements Client.
func (c *HTTPClient) Schema(table string) ([]Column, error) {
	r, err := c.getDoc("/druid/v2/schema?" + url.Values{"table": {table}}.Encode())
	if err != nil {
		return nil, err
	}
	out := make([]Column, r.Count())
	for i := range out {
		out[i] = Column{Name: r.Str(), Type: types.ReadType(r)}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("druid: broker %s: schema of %s: %w", c.BaseURL, table, err)
	}
	return out, nil
}

// getDoc reads the broker's answer to a GET of path, at most
// maxQueryBytes of it.
func (c *HTTPClient) getDoc(path string) (*frame.Reader, error) {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("druid: %s: %s", path, readError(resp))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxQueryBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxQueryBytes {
		return nil, fmt.Errorf("druid: broker %s: %s answered over %d bytes", c.BaseURL, path, maxQueryBytes)
	}
	return frame.NewReader(body), nil
}

func readError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // best-effort error detail
	return string(bytes.TrimSpace(data))
}

// Versioner is an optional Client capability: clients with access to the
// store's snapshot versions expose them so the connector can implement
// connector.SnapshotVersioner. HTTPClient deliberately does not implement
// it — a remote broker has no version endpoint, so queries through it are
// simply never result-cached.
type Versioner interface {
	TableVersion(table string) (int64, bool)
}

// PartialsReporter is an optional Client capability: a client over an
// in-process store reports the store's memo of sealed segments' partial
// aggregates, so the connector can publish it.
type PartialsReporter interface {
	PartialsMetrics() *cache.Metrics
}

// LatencyClient wraps a Client, charging a fixed round-trip latency per
// request. Benchmarks use it for both the native and the connector path so
// comparisons include the broker RTT every production client pays.
type LatencyClient struct {
	Inner   Client
	Latency time.Duration
	// Clock charges the latency; nil means real time, which is what the
	// benchmarks measuring broker RTT want.
	Clock fault.Clock
}

func (c *LatencyClient) sleep() {
	if c.Clock != nil {
		c.Clock.Sleep(c.Latency)
		return
	}
	//lint:ignore clockdet the simulated broker RTT is the benchmark's measured subject; callers that replay under CHAOS_SEED inject a Clock instead
	time.Sleep(c.Latency)
}

// Execute implements Client.
func (c *LatencyClient) Execute(q Query) (*Result, error) {
	c.sleep()
	return c.Inner.Execute(q)
}

// Tables implements Client.
func (c *LatencyClient) Tables() ([]string, error) {
	c.sleep()
	return c.Inner.Tables()
}

// Schema implements Client.
func (c *LatencyClient) Schema(table string) ([]Column, error) {
	c.sleep()
	return c.Inner.Schema(table)
}

// TableVersion implements Versioner by delegation when the inner client
// supports it. Version probes charge no latency: the coordinator checks
// them on the cache fast path, where a simulated RTT would erase the very
// win being measured.
func (c *LatencyClient) TableVersion(table string) (int64, bool) {
	if v, ok := c.Inner.(Versioner); ok {
		return v.TableVersion(table)
	}
	return 0, false
}

// EmbeddedClient serves queries from an in-process store (used when the
// connector and store share a process, e.g. benchmarks).
type EmbeddedClient struct {
	Store *Store
}

// Execute implements Client.
func (c *EmbeddedClient) Execute(q Query) (*Result, error) { return c.Store.Execute(q) }

// Tables implements Client.
func (c *EmbeddedClient) Tables() ([]string, error) { return c.Store.Tables(), nil }

// TableVersion implements Versioner.
func (c *EmbeddedClient) TableVersion(table string) (int64, bool) {
	return c.Store.TableVersion(table)
}

// PartialsMetrics implements PartialsReporter.
func (c *EmbeddedClient) PartialsMetrics() *cache.Metrics { return c.Store.PartialsMetrics() }

// Schema implements Client.
func (c *EmbeddedClient) Schema(table string) ([]Column, error) {
	t, err := c.Store.GetTable(table)
	if err != nil {
		return nil, err
	}
	return t.Columns, nil
}
