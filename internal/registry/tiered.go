package registry

import (
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/resultdb"
)

// Tiered layers a fast local store (usually a resultdb.DirStore) in
// front of a remote one (usually a registry Client): lookups try the
// local tier first and read remote hits through into it — the local
// commit is the directory store's atomic rename, so a crash mid
// read-through never leaves a torn record — while commits write the
// remote tier first (shared progress survives a local disk failure)
// and then the local one. A warm local tier answers every repeat
// lookup without a network round trip.
type Tiered struct {
	local, remote resultdb.Store
	traffic       resultdb.Traffic
}

var _ resultdb.Store = (*Tiered)(nil)
var _ resultdb.Pinner = (*Tiered)(nil)
var _ resultdb.Prefetcher = (*Tiered)(nil)

// NewTiered combines a local and a remote store. Both are owned by
// the result: Close closes them.
func NewTiered(local, remote resultdb.Store) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Get returns the saved result for a key, success records only,
// misses tolerant of every failure mode.
func (t *Tiered) Get(key string) (core.SavedResult, bool) {
	return resultdb.GetFrom(t, key)
}

// Lookup consults local then remote, populating the local tier on a
// remote hit. A local transport error (impossible for a DirStore) is
// not fatal — the remote tier still answers; a remote error surfaces
// only when the local tier missed.
func (t *Tiered) Lookup(key string) (resultdb.Entry, bool, error) {
	t.traffic.Lookup()
	if ent, ok, err := t.local.Lookup(key); err == nil && ok {
		t.traffic.Found(ent)
		return ent, true, nil
	}
	ent, ok, err := t.remote.Lookup(key)
	if err != nil || !ok {
		return resultdb.Entry{}, false, err
	}
	// Read-through: best-effort local commit. A failed populate costs
	// a repeat round trip, never the entry.
	if ent.Err != "" {
		_ = t.local.PutError(key, ent.Err)
	} else {
		_ = t.local.Put(key, ent.Result)
	}
	t.traffic.Found(ent)
	return ent, true, nil
}

// Put commits to the remote tier first, then the local one; either
// failure is an error, since the caller asked for both.
func (t *Tiered) Put(key string, res core.SavedResult) error {
	if err := t.remote.Put(key, res); err != nil {
		return err
	}
	if err := t.local.Put(key, res); err != nil {
		return err
	}
	t.traffic.Committed(false)
	return nil
}

// PutError commits a failure record to both tiers, remote first.
func (t *Tiered) PutError(key, msg string) error {
	if err := t.remote.PutError(key, msg); err != nil {
		return err
	}
	if err := t.local.PutError(key, msg); err != nil {
		return err
	}
	t.traffic.Committed(true)
	return nil
}

// Keys returns the sorted union of both tiers' advisory key sets.
func (t *Tiered) Keys() []string {
	seen := make(map[string]bool)
	for _, k := range t.local.Keys() {
		seen[k] = true
	}
	for _, k := range t.remote.Keys() {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the tiered store's own traffic. Per-tier counters
// remain available on the tiers themselves; retries and prefetch
// skips only happen in the tiers, so they are summed through.
func (t *Tiered) Stats() resultdb.StoreStats {
	ls, rs := t.local.Stats(), t.remote.Stats()
	st := t.traffic.Snapshot()
	st.Retries, st.PrefetchSkips = ls.Retries+rs.Retries, ls.PrefetchSkips+rs.PrefetchSkips
	return st
}

// Close closes both tiers, reporting every failure.
func (t *Tiered) Close() error {
	return errors.Join(t.local.Close(), t.remote.Close())
}

// Prefetch forwards the working-set hint to each tier that supports
// it — in practice the remote registry client, which answers the hint
// with one manifest fetch. Keys the local tier already holds never
// consult the remote tier at all (Lookup returns the local hit), so
// forwarding the full set costs nothing beyond the single round trip.
func (t *Tiered) Prefetch(keys []string) {
	for _, tier := range []resultdb.Store{t.local, t.remote} {
		if p, ok := tier.(resultdb.Prefetcher); ok {
			p.Prefetch(keys)
		}
	}
}

// Pin forwards to each tier that supports pinning, so the local
// directory tier keeps a sweep's cells across a concurrent GC.
func (t *Tiered) Pin(keys []string) (release func()) {
	var releases []func()
	for _, tier := range []resultdb.Store{t.local, t.remote} {
		if p, ok := tier.(resultdb.Pinner); ok {
			releases = append(releases, p.Pin(keys))
		}
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}
}
