package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alya"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/resultdb"
	"repro/internal/units"
)

// sample builds a distinctive SavedResult without running a
// simulation; i differentiates records.
func sample(i int) core.SavedResult {
	return core.SavedResult{
		Deploy: container.DeployReport{
			Runtime: "Singularity", Image: "bsc/alya:v2.0", Nodes: i,
			WireSize: units.ByteSize(700+i) * units.MiB, PullTime: units.Seconds(i) * 1.25,
		},
		Exec: alya.Result{
			Case: "quick-cfd", Runtime: "Singularity", FabricPath: "omni-path",
			Nodes: i, Ranks: 48 * i, Threads: 1,
			TimePerStep: 0.375 * units.Seconds(i+1), Elapsed: 16.875 * units.Seconds(i+1),
		},
	}
}

func key(i int) string { return fmt.Sprintf("%064x", i) }

// newRegistry stands up a directory store, its HTTP server, and a
// dialled client with fast retries.
func newRegistry(t *testing.T) (*resultdb.DirStore, *httptest.Server, *Client) {
	t.Helper()
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(NewServer(store, ServerOptions{}))
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return store, ts, c
}

// TestRoundTrip is the wire contract: a record survives
// client→server→disk→server→client bit-identically, failure records
// included, and the manifest lists it.
func TestRoundTrip(t *testing.T) {
	store, _, c := newRegistry(t)

	if _, ok, err := c.Lookup(key(1)); ok || err != nil {
		t.Fatalf("empty registry answered: ok=%v err=%v", ok, err)
	}
	want := sample(1)
	if err := c.Put(key(1), want); err != nil {
		t.Fatal(err)
	}
	ent, ok, err := c.Lookup(key(1))
	if err != nil || !ok {
		t.Fatalf("lookup after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(ent.Result, want) {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", ent.Result, want)
	}
	// The server persisted through the same DirStore commit path.
	if got, ok := store.Get(key(1)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("server-side store does not hold the record")
	}

	if err := c.PutError(key(2), "docker needs admin rights"); err != nil {
		t.Fatal(err)
	}
	if ent, ok, err := c.Lookup(key(2)); err != nil || !ok || ent.Err != "docker needs admin rights" {
		t.Fatalf("failure record: ok=%v err=%v ent=%+v", ok, err, ent)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("failure record answered a success-only Get")
	}
	if err := c.PutError(key(3), ""); err == nil {
		t.Fatal("empty failure message accepted")
	}

	keys := c.Keys()
	if len(keys) != 2 || keys[0] != key(1) || keys[1] != key(2) {
		t.Fatalf("manifest keys %v", keys)
	}

	// 4 lookups: the cold miss, the hit, and two negative hits (Get is
	// a Lookup underneath).
	st := c.Stats()
	if st.Lookups != 4 || st.Hits != 1 || st.NegHits != 2 || st.Puts != 1 || st.PutErrors != 1 || st.Misses() != 1 {
		t.Fatalf("client stats %+v", st)
	}
}

// TestDialRejectsMismatchedSchema is the handshake: a registry built
// from a different model refuses typed, before any record moves.
func TestDialRejectsMismatchedSchema(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wireSchema{Schema: "99-deadbeef"})
	}))
	defer ts.Close()

	_, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	var sme *SchemaMismatchError
	if !errors.As(err, &sme) {
		t.Fatalf("want *SchemaMismatchError, got %v", err)
	}
	if sme.Server != "99-deadbeef" || sme.Client != resultdb.SchemaVersion {
		t.Fatalf("mismatch error carries %+v", sme)
	}
}

// TestServerRejectsMismatchedClients covers the server side of the
// handshake: stamped requests under a different schema get 409 with
// the typed body, and the client surfaces it as *SchemaMismatchError
// — a server restarted under a new model stops old clients mid-sweep.
func TestServerRejectsMismatchedClients(t *testing.T) {
	_, ts, _ := newRegistry(t)

	// Raw request wearing a stale stamp.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/cells/"+key(1), nil)
	req.Header.Set(headerSchema, "1-0000000000000000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale stamp got HTTP %d, want 409", resp.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if we.Code != codeSchemaMismatch || we.ServerSchema != resultdb.SchemaVersion {
		t.Fatalf("wire error %+v", we)
	}

	// A PUT whose record is stamped with a different schema is refused
	// even if the request header is current.
	body, _ := json.Marshal(resultdb.Record{Schema: "1-0000000000000000", Key: key(1), Result: sample(1)})
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/cells/"+key(1), strings.NewReader(string(body)))
	req.Header.Set(headerSchema, resultdb.SchemaVersion)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale record got HTTP %d, want 409", resp.StatusCode)
	}

	// Client-side: a mid-session schema change surfaces typed through
	// Lookup, not as a silent miss.
	mismatch := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(wireError{Code: codeSchemaMismatch, ServerSchema: "99-deadbeef"})
	}))
	defer mismatch.Close()
	c2 := &Client{base: mismatch.URL, hc: http.DefaultClient, backoff: time.Millisecond}
	var sme *SchemaMismatchError
	if _, _, err := c2.Lookup(key(1)); !errors.As(err, &sme) {
		t.Fatalf("want *SchemaMismatchError from Lookup, got %v", err)
	}
	if err := c2.Put(key(1), sample(1)); !errors.As(err, &sme) {
		t.Fatalf("want *SchemaMismatchError from Put, got %v", err)
	}
}

// TestConcurrentPutSameFingerprint hammers one key from many
// goroutines: commits are idempotent (content is a pure function of
// the key), so every writer succeeds and one valid record remains.
func TestConcurrentPutSameFingerprint(t *testing.T) {
	store, _, c := newRegistry(t)

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.Put(key(5), sample(5))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if got, ok := c.Get(key(5)); !ok || !reflect.DeepEqual(got, sample(5)) {
		t.Fatal("record damaged by concurrent writers")
	}
	if store.Len() != 1 {
		t.Fatalf("store knows %d keys, want 1", store.Len())
	}
}

// TestCorruptRecordReadsAsMiss covers damage at both layers: a
// corrupted record file on the server reads as a registry miss (one
// recomputation, never a failed sweep), and an undecodable wire body
// does the same on the client.
func TestCorruptRecordReadsAsMiss(t *testing.T) {
	store, _, c := newRegistry(t)
	if err := c.Put(key(6), sample(6)); err != nil {
		t.Fatal(err)
	}

	// Truncate the record file under the server.
	path := filepath.Join(store.Dir(), key(6)[:2], key(6)+".json")
	if err := os.WriteFile(path, []byte(`{"schema":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Lookup(key(6)); ok || err != nil {
		t.Fatalf("corrupt server record: ok=%v err=%v", ok, err)
	}
	// A re-Put repairs it.
	if err := c.Put(key(6), sample(6)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Lookup(key(6)); !ok || err != nil {
		t.Fatalf("repaired record: ok=%v err=%v", ok, err)
	}

	// An undecodable 200 body is a client-side miss, not an error.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "not json")
	}))
	defer garbage.Close()
	c2 := &Client{base: garbage.URL, hc: http.DefaultClient, backoff: time.Millisecond}
	if _, ok, err := c2.Lookup(key(6)); ok || err != nil {
		t.Fatalf("garbage wire body: ok=%v err=%v", ok, err)
	}
}

// TestRetryBackoff asserts transient failures are retried and
// counted, and that exhausting retries surfaces an error.
func TestRetryBackoff(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	real := NewServer(store, ServerOptions{})
	var mu sync.Mutex
	failures := 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "wobble", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c, err := Dial(flaky.URL, ClientOptions{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err) // the two failures burn into the dial handshake's retries
	}
	if got := c.Stats().Retries; got != 2 {
		t.Fatalf("handshake retried %d times, want 2", got)
	}

	mu.Lock()
	failures = 10 // beyond the retry budget
	mu.Unlock()
	if err := c.Put(key(1), sample(1)); err == nil {
		t.Fatal("exhausted retries reported success")
	} else if !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("error hides the cause: %v", err)
	}
}

// TestGracefulShutdown cancels the serve context while a PUT is in
// flight: the listener stops accepting, the in-flight commit
// completes and lands durably, and Serve returns nil.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Stream a PUT body slowly so the request is mid-flight when the
	// context dies.
	pr, pw := io.Pipe()
	body, _ := json.Marshal(resultdb.Record{Schema: resultdb.SchemaVersion, Key: key(9), Result: sample(9)})
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/cells/"+key(9), pr)
	req.Header.Set(headerSchema, resultdb.SchemaVersion)
	respErr := make(chan error, 1)
	var status int
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			status = resp.StatusCode
			resp.Body.Close()
		}
		respErr <- err
	}()

	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	cancel() // shutdown begins with the PUT half-sent
	time.Sleep(20 * time.Millisecond)
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	if err := <-respErr; err != nil {
		t.Fatalf("in-flight PUT dropped during shutdown: %v", err)
	}
	if status != http.StatusNoContent {
		t.Fatalf("in-flight PUT got HTTP %d", status)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	// The commit is durable: a fresh open sees it.
	s2, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(key(9)); !ok {
		t.Fatal("record committed during shutdown is not durable")
	}
}

// TestTieredReadThroughAndWrites covers the two-flag configuration:
// remote hits populate the local directory, repeat lookups stay
// local, and commits land in both tiers.
func TestTieredReadThroughAndWrites(t *testing.T) {
	central, _, c := newRegistry(t)
	local, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(local, c)
	defer tiered.Close()

	// Seed the registry behind the tiered store's back.
	if err := central.Put(key(1), sample(1)); err != nil {
		t.Fatal(err)
	}
	ent, ok, err := tiered.Lookup(key(1))
	if err != nil || !ok || !reflect.DeepEqual(ent.Result, sample(1)) {
		t.Fatalf("remote hit through tiers: ok=%v err=%v", ok, err)
	}
	// Read-through populated the local tier atomically.
	if _, ok := local.Get(key(1)); !ok {
		t.Fatal("remote hit did not populate the local tier")
	}
	before := c.Stats().Lookups
	if _, ok, _ := tiered.Lookup(key(1)); !ok {
		t.Fatal("second lookup missed")
	}
	if got := c.Stats().Lookups; got != before {
		t.Fatalf("warm lookup went to the network (%d -> %d)", before, got)
	}

	// Writes land in both tiers.
	if err := tiered.Put(key(2), sample(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.Get(key(2)); !ok {
		t.Fatal("put skipped the local tier")
	}
	if _, ok := central.Get(key(2)); !ok {
		t.Fatal("put skipped the registry")
	}
	if keys := tiered.Keys(); len(keys) != 2 {
		t.Fatalf("union keys %v", keys)
	}
}

// TestRejectsNonFingerprintKeys closes the path-traversal hole: a
// percent-encoded "../" key must be refused at the wire with a typed
// 400 and must never reach a filesystem join.
func TestRejectsNonFingerprintKeys(t *testing.T) {
	store, ts, _ := newRegistry(t)

	evil := "%2e%2e%2f%2e%2e%2fevil"
	rec, _ := json.Marshal(resultdb.Record{Schema: resultdb.SchemaVersion, Key: "../../evil", Error: "pwn"})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cells/"+evil, strings.NewReader(string(rec)))
	req.Header.Set(headerSchema, resultdb.SchemaVersion)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal PUT got HTTP %d, want 400", resp.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code != codeBadRecord {
		t.Fatalf("traversal PUT body: %+v (%v)", we, err)
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), "..", "evil.json")); !os.IsNotExist(err) {
		t.Fatal("traversal PUT escaped the store directory")
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), "..", "..", "evil.json")); !os.IsNotExist(err) {
		t.Fatal("traversal PUT escaped two levels up")
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/cells/"+evil, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal GET got HTTP %d, want 400", resp.StatusCode)
	}

	// The client refuses malformed keys before they reach the wire,
	// and the store itself is the last line of defence.
	c, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("../../evil", sample(1)); err == nil || !strings.Contains(err.Error(), "invalid key") {
		t.Fatalf("client accepted a traversal key: %v", err)
	}
	if err := store.PutError("../../evil", "pwn"); err == nil {
		t.Fatal("store accepted a traversal key")
	}
	if _, ok, err := store.Lookup("../../evil"); ok || err != nil {
		t.Fatalf("store lookup on traversal key: ok=%v err=%v", ok, err)
	}
}

// TestServeTearsDownGCOnFatalError asserts a fatal listener failure
// unwinds Serve even with periodic GC configured — the GC loop must
// follow the server's lifetime, not only the signal context.
func TestServeTearsDownGCOnFatalError(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{GCInterval: time.Hour, GC: resultdb.GCPolicy{MaxAge: time.Hour}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	time.Sleep(10 * time.Millisecond)
	ln.Close() // the accept loop dies without any context cancellation

	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("fatal listener failure reported as clean shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve wedged after a fatal listener failure")
	}
}

// TestPrefetchSkipsAbsentLookups is the shard-prefetch contract: one
// manifest fetch lets the client answer lookups of keys the registry
// lacks without a per-cell GET, counting the avoided round trips; the
// mark is one-shot, so the next lookup of the same key returns to the
// wire, and a key the client itself commits is unmarked immediately.
func TestPrefetchSkipsAbsentLookups(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{})
	var cellGets int64
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cells/") {
			mu.Lock()
			cellGets++
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	gets := func() int64 { mu.Lock(); defer mu.Unlock(); return cellGets }

	c, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(key(1), sample(1)); err != nil {
		t.Fatal(err)
	}

	c.Prefetch([]string{key(1), key(2)})

	// Absent key: answered locally, zero wire traffic, one skip.
	if _, ok, err := c.Lookup(key(2)); err != nil || ok {
		t.Fatalf("prefetched-absent lookup: ok=%v err=%v", ok, err)
	}
	if gets() != 0 {
		t.Fatalf("prefetched-absent lookup hit the wire (%d GETs)", gets())
	}
	if got := c.Stats().PrefetchSkips; got != 1 {
		t.Fatalf("PrefetchSkips = %d, want 1", got)
	}

	// One-shot: the second lookup of the same key asks the registry.
	if _, ok, err := c.Lookup(key(2)); err != nil || ok {
		t.Fatalf("second lookup: ok=%v err=%v", ok, err)
	}
	if gets() != 1 {
		t.Fatalf("second lookup did not hit the wire (%d GETs)", gets())
	}

	// Present key: the prefetch never marked it, the GET hits.
	ent, ok, err := c.Lookup(key(1))
	if err != nil || !ok || ent.Err != "" {
		t.Fatalf("present lookup: ok=%v err=%v", ok, err)
	}
	if gets() != 2 {
		t.Fatalf("present lookup skipped the wire (%d GETs)", gets())
	}

	// A key this client commits is unmarked: the next lookup must see
	// the committed record, not a stale absence.
	c.Prefetch([]string{key(3)})
	if err := c.Put(key(3), sample(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Lookup(key(3)); !ok {
		t.Fatal("lookup after own Put answered from a stale prefetch mark")
	}
	if got := c.Stats().PrefetchSkips; got != 1 {
		t.Fatalf("PrefetchSkips = %d after Put-cleared mark, want 1", got)
	}

	// A re-prefetch prunes marks the fresh manifest disproves: mark a
	// key absent, let "another shard" commit it, prefetch again — the
	// next lookup must see the record, not the stale mark.
	c.Prefetch([]string{key(5)})
	other, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(key(5), sample(5)); err != nil {
		t.Fatal(err)
	}
	other.Close()
	c.Prefetch([]string{key(5)})
	if _, ok, _ := c.Lookup(key(5)); !ok {
		t.Fatal("stale absence mark survived a fresh manifest prefetch")
	}

	// A failed manifest fetch marks nothing: lookups keep working.
	ts.Close()
	c.Prefetch([]string{key(4)})
	if got := c.Stats().PrefetchSkips; got != 1 {
		t.Fatalf("PrefetchSkips = %d after failed prefetch, want 1", got)
	}
}
