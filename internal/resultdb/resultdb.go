// Package resultdb is a persistent, content-addressed store for cell
// results. Each record is one core.SavedResult keyed by the cell's
// canonical fingerprint (core.CellID.Fingerprint). The package defines
// the pluggable Store contract the sweep engine and the merge assembly
// depend on, plus its reference implementation, DirStore: one JSON
// file per record under a cache directory:
//
//	<dir>/<key[:2]>/<key>.json
//
// Commits are crash-safe: a record is written to a temp file, synced,
// and renamed into place, so a reader never observes a half-written
// record at its final path. An append-only manifest journal
// (<dir>/manifest.log, one key per line) indexes committed records so
// a resumed or merging process can enumerate the store without
// scanning; the record files remain the source of truth — a journal
// entry whose file is missing or unreadable is simply a miss, and a
// record committed just before a crash that lost its journal line is
// still found on disk.
//
// Records carry a schema stamp, SchemaVersion: the record generation
// alone. The simulator's model is not in the stamp but in the key:
// core.CellID hashes the cell's cluster and case tables and the model
// slice it reads (runtime costs, OpenMP model, launch latency, step
// program), so a model edit re-keys exactly the cells that read it and
// every other record keeps replaying. Output-moving code changes that
// no key can see must bump SchemaVersion.
//
// Failed cells are cached too: PutError commits a schema-stamped error
// record through the same atomic-rename path, so repeated sweeps skip
// known-bad runtime×technique combinations. Lookup distinguishes the
// three outcomes — successful result, recorded failure, miss — while
// Get keeps the success-only view.
//
// Multiple processes may share one directory — the sharded-sweep
// workflow depends on it. Renames are atomic, concurrent commits of
// the same key are idempotent (the content is a pure function of the
// key), and manifest appends use O_APPEND single-write lines.
//
// A second journal, <dir>/access.log, records when each record was
// last read or written; GC (gc.go) uses it to evict cold records
// under a size/age policy while Pin protects the cells of an in-flight
// sweep from eviction.
package resultdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SchemaVersion stamps every record: the record generation. Bump it
// when the record encoding changes, or when a code change moves output
// that no cell key can see (a kernel's arithmetic, a collective's
// schedule). The model a cell reads is in its key (core.CellID), so a
// model edit re-keys only the cells that read it and leaves the stamp
// alone. Records written under another generation read as misses and
// are recomputed. A network registry serves the stamp on GET
// /v1/schema, so clients refuse to exchange records across a
// generation instead of silently misreading them.
const SchemaVersion = "3"

// ValidKey reports whether key is a well-formed content address: 64
// lowercase hex characters, the sha256 fingerprint form. Stores and
// the registry reject anything else — a key is a digest, never a
// path, so "../evil" can never reach the filesystem or the wire.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// manifestName is the journal file inside a store directory.
const manifestName = "manifest.log"

// accessName is the access journal GC reads last-use times from.
const accessName = "access.log"

// Store is the pluggable result-store contract: a content-addressed
// map from cell fingerprints to committed entries. The sweep engine,
// the FromStore (merge) assembly, and the CLI all depend on this
// interface, so a directory, a network registry client, or a tiered
// combination of the two can back a sweep interchangeably.
//
// Semantics every implementation must keep:
//
//   - Get is the success-only, miss-tolerant view: any failure to
//     produce a valid success record — absence, damage, staleness,
//     a recorded cell failure — reads as a miss.
//   - Lookup reports committed entries (success or recorded failure)
//     and surfaces transport errors; damaged or stale records read as
//     misses with a nil error, costing one recomputation rather than
//     a failed sweep.
//   - Put/PutError commit durably before returning; committing the
//     same key concurrently from several writers is safe because the
//     content is a pure function of the key.
//   - Keys is advisory enumeration: a listed key may still miss.
type Store interface {
	// Get returns the saved result for a key, success records only.
	Get(key string) (core.SavedResult, bool)
	// Lookup returns the committed entry for a key — a saved result or
	// a recorded failure (Entry.Err non-empty). The error reports
	// transport-level failures (a network store that cannot answer);
	// damaged records are misses, not errors.
	Lookup(key string) (Entry, bool, error)
	// Put commits a successful result under a key.
	Put(key string, res core.SavedResult) error
	// PutError commits a failure record under a key; msg must be
	// non-empty.
	PutError(key, msg string) error
	// Keys enumerates every key the store knows of, sorted.
	Keys() []string
	// Stats snapshots the store's traffic counters.
	Stats() StoreStats
	// Close releases the store's resources. Committed records stay
	// readable by future opens.
	Close() error
}

// StoreStats is a snapshot of one store's traffic: how many lookups it
// answered and how, and how many commits it accepted. Network stores
// additionally count transport retries. The CLI's -v mode reports
// these alongside the sweep's own counters.
type StoreStats struct {
	// Lookups counts Get/Lookup calls.
	Lookups int64
	// Hits counts lookups answered with a successful result.
	Hits int64
	// NegHits counts lookups answered with a recorded failure.
	NegHits int64
	// Puts counts committed results; PutErrors committed failure
	// records.
	Puts, PutErrors int64
	// Retries counts transport retries (network stores only).
	Retries int64
	// PrefetchSkips counts lookups answered as misses locally because
	// a manifest prefetch (Prefetcher) showed the store lacks the key —
	// each one is a per-cell round trip a network store avoided.
	PrefetchSkips int64
}

// Sub returns the traffic accumulated between snapshot o and st.
func (st StoreStats) Sub(o StoreStats) StoreStats {
	return StoreStats{
		Lookups:       st.Lookups - o.Lookups,
		Hits:          st.Hits - o.Hits,
		NegHits:       st.NegHits - o.NegHits,
		Puts:          st.Puts - o.Puts,
		PutErrors:     st.PutErrors - o.PutErrors,
		Retries:       st.Retries - o.Retries,
		PrefetchSkips: st.PrefetchSkips - o.PrefetchSkips,
	}
}

// Misses derives the lookups that found nothing.
func (st StoreStats) Misses() int64 { return st.Lookups - st.Hits - st.NegHits }

// Traffic is the lookup/commit counter set every Store keeps; Snapshot
// is the base of its Stats. Safe for concurrent use.
type Traffic struct {
	lookups, hits, negHits, puts, putErrors atomic.Int64
}

// Lookup counts one Get/Lookup call, whatever its outcome.
func (t *Traffic) Lookup() { t.lookups.Add(1) }

// Found counts a lookup answered with a committed entry: a hit, or a
// negative hit when the entry is a recorded failure.
func (t *Traffic) Found(ent Entry) {
	if ent.Err != "" {
		t.negHits.Add(1)
	} else {
		t.hits.Add(1)
	}
}

// Committed counts one accepted commit, of a result or of a failure
// record.
func (t *Traffic) Committed(failure bool) {
	if failure {
		t.putErrors.Add(1)
	} else {
		t.puts.Add(1)
	}
}

// Snapshot returns the counters; Retries and PrefetchSkips are left
// for the stores that have them.
func (t *Traffic) Snapshot() StoreStats {
	return StoreStats{
		Lookups:   t.lookups.Load(),
		Hits:      t.hits.Load(),
		NegHits:   t.negHits.Load(),
		Puts:      t.puts.Load(),
		PutErrors: t.putErrors.Load(),
	}
}

// GetFrom derives the success-only Get view from a store's Lookup —
// the one place its semantics live, so every backend filters
// transport errors, misses, and recorded failures identically.
func GetFrom(s Store, key string) (core.SavedResult, bool) {
	ent, ok, err := s.Lookup(key)
	if err != nil || !ok || ent.Err != "" {
		return core.SavedResult{}, false
	}
	return ent.Result, true
}

// Prefetcher is implemented by stores that can learn, in one bulk
// operation, which of an upcoming working set's keys they do not
// have. The sweep engine announces the full key set before its lookup
// fan-out; a network store answers by fetching the manifest once and
// then resolving lookups of known-absent keys locally, replacing one
// round trip per missing cell with one per sweep. The hint is
// best-effort and advisory in both directions: a key another writer
// commits after the prefetch may read as a miss once (the same race a
// direct GET has — the cell is recomputed and the commit is
// idempotent), and a failed prefetch simply leaves every lookup on
// its normal path. Directory stores don't implement it: a local read
// costs less than maintaining the hint.
type Prefetcher interface {
	// Prefetch hints that keys are about to be looked up.
	Prefetch(keys []string)
}

// Pinner is implemented by stores whose records can be protected from
// garbage collection. A sweep pins every key it will read or write for
// the duration of the run, so a GC pass in the same process can never
// evict a cell between its lookup and its use. Pins are in-process
// state: they do not travel over the wire, so a remote registry's
// server-side GC instead relies on access recency — lookups and
// commits refresh the record's journal entry (coalesced to once per
// GC cycle), and the server's -max-age should exceed the longest
// expected sweep.
type Pinner interface {
	// Pin protects keys until the returned release is called. Pins
	// nest: a key is evictable again once every Pin holding it has
	// been released.
	Pin(keys []string) (release func())
}

// Entry is one committed record's payload: a saved result, or the
// recorded error of a cell that deterministically fails.
type Entry struct {
	// Result is the saved outcome; meaningful only when Err is empty.
	Result core.SavedResult
	// Err is the recorded failure; empty for successful cells.
	Err string
}

// DirStore is the directory-backed Store: the reference
// implementation every other backend (the network registry, the
// tiered cache) ultimately persists through.
type DirStore struct {
	dir     string
	traffic Traffic

	mu       sync.Mutex
	manifest *os.File
	access   *os.File
	known    map[string]bool
	touched  map[string]bool // keys already access-journaled by this process
	pins     map[string]int
}

var _ Store = (*DirStore)(nil)
var _ Pinner = (*DirStore)(nil)

// Open creates the directory if needed, replays the manifest journal,
// and returns the store.
func Open(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultdb: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	known := make(map[string]bool)
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	// Only well-formed keys replay: a torn final line (crash mid-append)
	// or a stray one must never reach Keys, the wire manifest or a
	// prefetch as if it named a record.
	for _, line := range strings.Split(string(data), "\n") {
		if key := strings.TrimSpace(line); ValidKey(key) {
			known[key] = true
		}
	}
	manifest, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		// End the torn line, or the next committed key would be glued
		// to it and lost to every later replay.
		if _, err := manifest.WriteString("\n"); err != nil {
			manifest.Close()
			return nil, fmt.Errorf("resultdb: manifest: %w", err)
		}
	}
	access, err := os.OpenFile(filepath.Join(dir, accessName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		manifest.Close()
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	return &DirStore{
		dir:      dir,
		manifest: manifest,
		access:   access,
		known:    known,
		touched:  make(map[string]bool),
		pins:     make(map[string]int),
	}, nil
}

// Close releases the journals. Records already committed stay readable
// by future Opens.
func (s *DirStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.manifest != nil {
		err = s.manifest.Close()
		s.manifest = nil
	}
	if s.access != nil {
		if aerr := s.access.Close(); err == nil {
			err = aerr
		}
		s.access = nil
	}
	return err
}

// Dir returns the store directory.
func (s *DirStore) Dir() string { return s.dir }

// recordPath places a record under a two-hex-character fan-out
// directory, keeping any single directory small on big sweeps.
func (s *DirStore) recordPath(key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, prefix, key+".json")
}

// Get returns the saved result for a key, success records only. Every
// failure mode — no record, truncated or corrupt JSON, schema
// mismatch, key mismatch, recorded failure — reads as a miss, so a
// damaged entry costs one recomputation, never a failed sweep.
func (s *DirStore) Get(key string) (core.SavedResult, bool) {
	return GetFrom(s, key)
}

// Lookup returns the committed entry for a key — a saved result or a
// recorded failure (Entry.Err non-empty). Damaged, stale-schema, and
// mismatched records read as misses, exactly as in Get; the error is
// always nil for a directory store (it exists for network backends).
func (s *DirStore) Lookup(key string) (Entry, bool, error) {
	s.traffic.Lookup()
	if !ValidKey(key) {
		return Entry{}, false, nil
	}
	data, err := os.ReadFile(s.recordPath(key))
	if err != nil {
		return Entry{}, false, nil
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		return Entry{}, false, nil
	}
	if rec.Schema != SchemaVersion || rec.Key != key {
		return Entry{}, false, nil
	}
	ent := Entry{Result: rec.Result, Err: rec.Error}
	s.traffic.Found(ent)
	s.mu.Lock()
	s.known[key] = true // reconcile: found on disk but absent from our journal view
	s.touchLocked(key)
	s.mu.Unlock()
	return ent, true, nil
}

// Put commits a result under a key: temp file, sync, atomic rename,
// then a journal append. A concurrent Put of the same key from another
// process is harmless — both renames install identical content.
func (s *DirStore) Put(key string, res core.SavedResult) error {
	if err := s.commit(key, Record{Schema: SchemaVersion, Key: key, Result: res}); err != nil {
		return err
	}
	s.traffic.Committed(false)
	return nil
}

// PutError commits a failure record under a key through the same
// atomic-rename path, so repeated sweeps skip known-bad cells instead
// of re-simulating them. The message must be non-empty — it is what
// distinguishes a failure record from a success.
func (s *DirStore) PutError(key, msg string) error {
	if msg == "" {
		return fmt.Errorf("resultdb: empty failure message for key %s", key)
	}
	if err := s.commit(key, Record{Schema: SchemaVersion, Key: key, Error: msg}); err != nil {
		return err
	}
	s.traffic.Committed(true)
	return nil
}

// Stats snapshots the store's traffic counters.
func (s *DirStore) Stats() StoreStats { return s.traffic.Snapshot() }

// Pin protects keys from GC until the returned release is called.
func (s *DirStore) Pin(keys []string) (release func()) {
	s.mu.Lock()
	for _, k := range keys {
		s.pins[k]++
	}
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			for _, k := range keys {
				if s.pins[k]--; s.pins[k] <= 0 {
					delete(s.pins, k)
				}
			}
			s.mu.Unlock()
		})
	}
}

// touchLocked appends an access-journal line for key, coalesced to
// once per key between GC passes (GC re-arms the guard): age-based
// eviction needs recency no finer than the collection interval, and
// journaling every hit would add a write syscall to each warm lookup
// and grow the file without bound. Best-effort: a failed append
// degrades GC's age signal (the record file's mtime takes over),
// never a read or write. Caller holds s.mu.
func (s *DirStore) touchLocked(key string) {
	if s.access == nil || s.touched[key] {
		return
	}
	//lint:allow wallclock -- GC access journal: host-side cache bookkeeping that never reaches simulated results
	fmt.Fprintf(s.access, "%d %s\n", time.Now().Unix(), key)
	s.touched[key] = true
}

func (s *DirStore) commit(key string, rec Record) error {
	if !ValidKey(key) {
		return fmt.Errorf("resultdb: invalid key %q (want a 64-hex fingerprint)", key)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	path := s.recordPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "commit-*")
	if err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("resultdb: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultdb: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}

	// The rename happens under the store lock so an in-process GC pass
	// (which holds it for its whole collection) can never evict a
	// record between this commit's install and its acknowledgement —
	// the commit either lands before the scan or after the eviction
	// loop, never in between.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	s.touchLocked(key)
	if s.known[key] {
		return nil // already journaled (recommit after schema bump, or racing writer)
	}
	if s.manifest != nil {
		if _, err := s.manifest.WriteString(key + "\n"); err != nil {
			return fmt.Errorf("resultdb: manifest: %w", err)
		}
	}
	s.known[key] = true
	return nil
}

// Keys returns every key this store knows of, sorted: the journal
// replayed at Open plus everything committed or observed since. Keys
// are advisory — a listed record may still read as a miss if its file
// was damaged.
func (s *DirStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.known))
	for k := range s.known {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of known keys.
func (s *DirStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// RecordedError is a replayed failure record: consumers return it in
// place of re-running a cell whose deterministic failure the store
// already witnessed. errors.As separates a replayed failure from a
// fresh one and from genuinely missing cells.
type RecordedError struct {
	// Key is the failed cell's content address.
	Key string
	// Msg is the failure text exactly as first recorded.
	Msg string
}

// Error returns the recorded message verbatim, so a replayed failure
// renders identically to the original.
func (e *RecordedError) Error() string { return e.Msg }
