package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resultdb"
	"repro/internal/telemetry"
)

// ClientOptions tunes a registry client.
type ClientOptions struct {
	// HTTPClient overrides the transport (httptest servers, custom
	// timeouts). Default: a client with a 30s request timeout.
	HTTPClient *http.Client
	// Retries is the number of extra attempts after the first on
	// transient failures (connection errors, 5xx, 429, 408).
	// Default 3; negative disables retrying.
	Retries int
	// Backoff is the delay before the first retry, doubling each
	// attempt. Default 100ms.
	Backoff time.Duration
	// Logf, when non-nil, receives one line per retried request —
	// transient errors are otherwise invisible when the retry
	// eventually succeeds, leaving a flaky link undiagnosed. The
	// retry count is also always available in Stats().Retries.
	Logf func(format string, args ...any)
	// JitterKey, when non-empty, decorrelates this client's retry
	// schedule from its peers': each delay is scaled into
	// [delay/2, delay) by a hash of (key, path, attempt). A fleet of
	// workers knocked loose by one coordinator restart then returns
	// spread out instead of as a thundering herd — deterministically,
	// so a given worker's schedule is reproducible. Empty keeps the
	// exact exponential schedule.
	JitterKey string
	// Journal, when non-nil, receives one wall-clock span per request
	// attempt (and per backoff wait), and every request carries the
	// journal's process identity and the attempt's span id in the
	// X-Hpc-Trace/X-Hpc-Span headers — the correlation key that lets
	// hpcstudy fleetlog join this client's journal with the server's.
	Journal *telemetry.FleetJournal
}

// Client speaks the wire protocol and implements resultdb.Store, so a
// sweep or merge pointed at a registry URL behaves exactly as one
// pointed at a local directory — including the damage semantics: an
// undecodable record costs one recomputation, never a failed sweep.
// Transport failures, by contrast, surface as errors after retries;
// a merge must distinguish "the registry is down" from "the cell was
// never computed".
type Client struct {
	base      string
	hc        *http.Client
	retries   int
	backoff   time.Duration
	jitterKey string
	logf      func(format string, args ...any)
	journal   *telemetry.FleetJournal

	traffic                resultdb.Traffic
	retried, prefetchSkips atomic.Int64

	// absentMu guards absent: keys a manifest prefetch showed the
	// registry lacked. Lookup consumes a mark (answers one miss
	// locally, then returns to the wire), so a stale hint costs at
	// most one recomputation — the same race window a direct GET has.
	absentMu sync.Mutex
	absent   map[string]bool
}

var _ resultdb.Store = (*Client)(nil)
var _ resultdb.Prefetcher = (*Client)(nil)

// Dial validates the base URL and performs the schema handshake:
// one GET /v1/schema, retried like any transient failure. A server of
// another record generation fails with *SchemaMismatchError before any
// record is exchanged.
func Dial(baseURL string, opt ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("registry: url %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("registry: url %q: need http(s)://host[:port]", baseURL)
	}
	hc := opt.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	retries := opt.Retries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	c := &Client{
		base:      strings.TrimRight(u.String(), "/"),
		hc:        hc,
		retries:   retries,
		backoff:   backoff,
		jitterKey: opt.JitterKey,
		logf:      opt.Logf,
		journal:   opt.Journal,
	}
	status, data, err := c.do(http.MethodGet, "/v1/schema", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("registry: %s is not a registry (GET /v1/schema: HTTP %d)", c.base, status)
	}
	var ws wireSchema
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("registry: %s is not a registry (GET /v1/schema: %v)", c.base, err)
	}
	if ws.Schema != resultdb.SchemaVersion {
		return nil, &SchemaMismatchError{Client: resultdb.SchemaVersion, Server: ws.Schema}
	}
	return c, nil
}

// transientStatus reports statuses worth retrying: the server (or a
// proxy) may recover; 4xx contract errors will not.
func transientStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests || status == http.StatusRequestTimeout
}

// do performs one request with retry-with-backoff on transport errors
// and transient statuses, returning the final status and fully-read
// body. The request body is rebuilt from bytes each attempt, so PUTs
// retry safely (commits are idempotent: content is a pure function of
// the key).
func (c *Client) do(method, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, fmt.Errorf("registry: %w", err)
		}
		req.Header.Set(headerSchema, resultdb.SchemaVersion)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		span := c.journal.NewSpan()
		if span != "" {
			req.Header.Set(headerTrace, c.journal.Proc())
			req.Header.Set(headerSpan, span)
		}
		spanStart := c.journal.Now()
		resp, err := c.hc.Do(req)
		if err == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRecordBytes+1))
			resp.Body.Close()
			if rerr == nil && !transientStatus(resp.StatusCode) {
				c.journalAttempt(method, path, span, spanStart, wireOutcome(resp.StatusCode, data), "")
				return resp.StatusCode, data, nil
			}
			if rerr != nil {
				lastErr = fmt.Errorf("reading response: %w", rerr)
			} else {
				lastErr = statusError(resp.StatusCode, data)
			}
		} else {
			lastErr = err
		}
		c.journalAttempt(method, path, span, spanStart, "retry", lastErr.Error())
		if attempt >= c.retries {
			return 0, nil, fmt.Errorf("registry: %s %s%s: %w (%d attempts)",
				method, c.base, path, lastErr, attempt+1)
		}
		c.retried.Add(1)
		delay := c.backoff << attempt
		if delay > maxBackoff || delay <= 0 { // <= 0: shifted past overflow
			delay = maxBackoff
		}
		delay = jittered(c.jitterKey, path, attempt, delay)
		if c.logf != nil {
			c.logf("registry: %s %s%s: %v; retry %d of %d in %v",
				method, c.base, path, lastErr, attempt+1, c.retries, delay)
		}
		backoffStart := c.journal.Now()
		//lint:allow wallclock -- retry backoff is transport pacing; cell contents are unaffected by when a request lands
		time.Sleep(delay)
		c.journal.Emit(telemetry.FleetEvent{
			Kind: telemetry.FleetSpan, Name: "backoff", Parent: span,
			StartNs: backoffStart, EndNs: c.journal.Now(),
			Outcome: "ok", Label: wireOpName(method, path),
		})
	}
}

// journalAttempt records one request attempt as a wire span.
func (c *Client) journalAttempt(method, path, span string, start int64, outcome, detail string) {
	if span == "" {
		return
	}
	c.journal.Emit(telemetry.FleetEvent{
		Kind: telemetry.FleetSpan, Name: wireOpName(method, path), Span: span,
		StartNs: start, EndNs: c.journal.Now(),
		Outcome: outcome, Label: method + " " + path, Detail: detail,
	})
}

// wireOpName names a request for journals: the operation, not the URL,
// so fleetlog attribution buckets GETs of different cells together.
func wireOpName(method, path string) string {
	switch {
	case path == "/v1/schema":
		return "schema"
	case path == "/v1/manifest":
		return "manifest"
	case path == "/v1/work/claim":
		return "claim"
	case path == "/v1/work/heartbeat":
		return "heartbeat"
	case path == "/v1/work/complete":
		return "complete"
	case path == "/v1/work":
		return "work-status"
	case strings.HasPrefix(path, "/v1/cells/") && method == http.MethodPut:
		return "store-put"
	case strings.HasPrefix(path, "/v1/cells/"):
		return "store-get"
	}
	return method + " " + path
}

// wireOutcome types a settled (non-retried) response for journals: the
// wire error code when the server sent one, else ok/miss/error by
// status class.
func wireOutcome(status int, data []byte) string {
	if status >= 200 && status < 300 {
		return "ok"
	}
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Code != "" && we.Code != codeNotFound {
		return we.Code
	}
	if status == http.StatusNotFound {
		return "miss"
	}
	return "error"
}

// statusError describes a failed response for retry logs and final
// errors. When the body carries a typed wire error, its code rides
// along ("HTTP 503 (lease-gone)"), so an operator reading a retry line
// sees what the server actually objected to, not just the status.
func statusError(status int, body []byte) error {
	var we wireError
	if json.Unmarshal(body, &we) == nil && we.Code != "" {
		return fmt.Errorf("HTTP %d (%s)", status, we.Code)
	}
	return fmt.Errorf("HTTP %d", status)
}

// jittered scales a backoff delay into [delay/2, delay) by a hash of
// (key, path, attempt): deterministic per worker, decorrelated across
// workers, so simultaneous retries fan out instead of herding. An
// empty key returns delay unchanged.
func jittered(key, path string, attempt int, delay time.Duration) time.Duration {
	if key == "" || delay <= 0 {
		return delay
	}
	// fnv64a, inlined: the same spread-by-hash trick resultdb uses for
	// shard ownership.
	h := uint64(14695981039346656037)
	for _, s := range []string{key, path} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	h ^= uint64(attempt)
	h *= 1099511628211
	// Top 53 bits → uniform fraction in [0, 1).
	frac := float64(h>>11) / float64(1<<53)
	return delay/2 + time.Duration(frac*float64(delay/2))
}

// maxBackoff caps the doubling retry delay so a generous retry budget
// waits steadily instead of minutes (or, past an int64 overflow, not
// at all).
const maxBackoff = 5 * time.Second

// mismatchFrom decodes a 409 body into the typed error.
func mismatchFrom(data []byte) error {
	var we wireError
	_ = json.Unmarshal(data, &we)
	return &SchemaMismatchError{Client: resultdb.SchemaVersion, Server: we.ServerSchema}
}

// Get returns the saved result for a key, success records only; any
// failure to produce one — including transport errors — reads as a
// miss.
func (c *Client) Get(key string) (core.SavedResult, bool) {
	return resultdb.GetFrom(c, key)
}

// Prefetch fetches the registry manifest once and marks every
// requested key the manifest lacks, so the next Lookup of each one is
// answered as a miss without a per-cell round trip. One GET replaces
// up to len(keys) GETs — the win for a sharded populate sweep, where
// most keys belong to shards that have not committed yet. Best-effort:
// a failed manifest fetch marks nothing and every lookup stays on the
// wire path.
func (c *Client) Prefetch(keys []string) {
	have := c.Keys()
	if have == nil {
		return
	}
	set := make(map[string]bool, len(have))
	for _, k := range have {
		set[k] = true
	}
	c.absentMu.Lock()
	defer c.absentMu.Unlock()
	if c.absent == nil {
		c.absent = make(map[string]bool)
	}
	for _, k := range keys {
		if set[k] {
			// The fresh manifest has it: drop any stale mark left by an
			// earlier prefetch (another shard committed the cell since),
			// so a long-lived client never answers a present cell as a
			// miss from old news.
			delete(c.absent, k)
		} else {
			c.absent[k] = true
		}
	}
}

// skipAbsent consumes a prefetch mark for key, reporting whether the
// lookup can be answered as a miss without touching the wire.
func (c *Client) skipAbsent(key string) bool {
	c.absentMu.Lock()
	defer c.absentMu.Unlock()
	if !c.absent[key] {
		return false
	}
	delete(c.absent, key)
	c.prefetchSkips.Add(1)
	return true
}

// clearAbsent drops a prefetch mark once key is known to exist (this
// client just committed it).
func (c *Client) clearAbsent(key string) {
	c.absentMu.Lock()
	delete(c.absent, key)
	c.absentMu.Unlock()
}

// Lookup fetches a record by fingerprint. Misses and damaged records
// return ok=false with a nil error (one recomputation); transport
// failures and schema conflicts return the error.
func (c *Client) Lookup(key string) (resultdb.Entry, bool, error) {
	c.traffic.Lookup()
	if c.skipAbsent(key) {
		return resultdb.Entry{}, false, nil
	}
	status, data, err := c.do(http.MethodGet, "/v1/cells/"+url.PathEscape(key), nil)
	if err != nil {
		return resultdb.Entry{}, false, err
	}
	switch status {
	case http.StatusOK:
		rec, err := resultdb.DecodeRecord(data)
		if err != nil {
			return resultdb.Entry{}, false, nil // damaged on the wire: a miss, like a corrupt file
		}
		if rec.Key != key || rec.Schema != resultdb.SchemaVersion {
			return resultdb.Entry{}, false, nil
		}
		ent := resultdb.Entry{Result: rec.Result, Err: rec.Error}
		c.traffic.Found(ent)
		return ent, true, nil
	case http.StatusNotFound:
		return resultdb.Entry{}, false, nil
	case http.StatusConflict:
		return resultdb.Entry{}, false, mismatchFrom(data)
	default:
		return resultdb.Entry{}, false, fmt.Errorf("registry: GET %s: HTTP %d", key, status)
	}
}

// Put commits a result to the registry.
func (c *Client) Put(key string, res core.SavedResult) error {
	if err := c.send(key, resultdb.Record{Schema: resultdb.SchemaVersion, Key: key, Result: res}); err != nil {
		return err
	}
	c.clearAbsent(key)
	c.traffic.Committed(false)
	return nil
}

// PutError commits a failure record; msg must be non-empty, exactly
// as on the directory store.
func (c *Client) PutError(key, msg string) error {
	if msg == "" {
		return fmt.Errorf("registry: empty failure message for key %s", key)
	}
	if err := c.send(key, resultdb.Record{Schema: resultdb.SchemaVersion, Key: key, Error: msg}); err != nil {
		return err
	}
	c.clearAbsent(key)
	c.traffic.Committed(true)
	return nil
}

func (c *Client) send(key string, rec resultdb.Record) error {
	if !resultdb.ValidKey(key) {
		return fmt.Errorf("registry: invalid key %q (want a 64-hex fingerprint)", key)
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	status, data, err := c.do(http.MethodPut, "/v1/cells/"+url.PathEscape(key), body)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusNoContent, http.StatusOK, http.StatusCreated:
		return nil
	case http.StatusConflict:
		return mismatchFrom(data)
	default:
		var we wireError
		if json.Unmarshal(data, &we) == nil && we.Error != "" {
			return fmt.Errorf("registry: PUT %s: HTTP %d: %s", key, status, we.Error)
		}
		return fmt.Errorf("registry: PUT %s: HTTP %d", key, status)
	}
}

// Keys fetches the registry manifest. Advisory, like every Keys: on
// transport failure it returns nil rather than guessing.
func (c *Client) Keys() []string {
	status, data, err := c.do(http.MethodGet, "/v1/manifest", nil)
	if err != nil || status != http.StatusOK {
		return nil
	}
	var m wireManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	sort.Strings(m.Keys)
	return m.Keys
}

// Stats snapshots the client's traffic counters, retries and
// prefetch-avoided round trips included.
func (c *Client) Stats() resultdb.StoreStats {
	st := c.traffic.Snapshot()
	st.Retries, st.PrefetchSkips = c.retried.Load(), c.prefetchSkips.Load()
	return st
}

// Close releases idle connections. The registry itself keeps running.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
