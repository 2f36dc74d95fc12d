package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/alya"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/registry"
	"repro/internal/resultdb"
	"repro/internal/units"
)

// wireOps drives the registry's wire protocol and lease manager with
// synthetic cells: one client claims batches of four, and for each
// cell looks it up (miss), commits it, reads it back (hit), heartbeats
// every second lease and completes. The simulator never runs.
type wireOps struct {
	fleet *wireFleet
}

// wireFleet is one coordinator with its store, HTTP server and client.
type wireFleet struct {
	dir    string
	store  *resultdb.DirStore
	queue  *registry.WorkQueue
	http   *httptest.Server
	client *registry.Client
	cells  []registry.WorkCell
	// saved maps a cell key to the synthetic result committed under it.
	saved map[string]core.SavedResult
}

func (f *wireFleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	if f.http != nil {
		f.http.Close()
	}
	if f.store != nil {
		f.store.Close()
	}
}

func (w *wireOps) setupReps() int { return 15 }

func (w *wireOps) teardown() {
	if w.fleet != nil {
		w.fleet.close()
		w.fleet = nil
	}
}

// setup stands up the coordinator the pass will drain. Before that it
// settles one lease on a four-cell coordinator without committing
// anything, so connection set-up and the HTTP stack's lazy
// initialisation are not charged to the first pass and set-up itself
// does not wait on the disk.
func (w *wireOps) setup(r *run) error {
	warm, err := buildWireFleet(r, 4)
	if err != nil {
		return err
	}
	defer warm.close()
	claim, err := warm.client.ClaimWork("warm-up")
	if err != nil {
		return err
	}
	if claim.Lease == nil {
		return fmt.Errorf("warm-up coordinator granted no lease")
	}
	for _, cell := range claim.Lease.Cells {
		if _, _, err := warm.client.Lookup(cell.Key); err != nil {
			return err
		}
	}
	if _, err := warm.client.CompleteWork(claim.Lease.ID, false, "", nil); err != nil {
		return err
	}
	cells := 3000
	if r.smoke {
		cells = 40
	}
	w.fleet, err = buildWireFleet(r, cells)
	return err
}

// syntheticResult is a record of a plausible size (an 80-rank cell)
// whose numbers come from the seeded generator.
func syntheticResult(r *run) core.SavedResult {
	ends := make([]units.Seconds, 80)
	for i := range ends {
		ends[i] = units.Seconds(r.rng.Float64())
	}
	return core.SavedResult{Exec: alya.Result{
		Case: "synthetic", Runtime: "Bare-metal", FabricPath: "none",
		Nodes: 2, Ranks: 80, Threads: 1,
		TimePerStep: units.Seconds(r.rng.Float64()),
		Elapsed:     units.Seconds(r.rng.Float64()),
		MPI:         mpi.Stats{End: ends[0], TotalMessages: r.rng.Intn(1 << 20), RankEnd: ends},
	}}
}

// buildWireFleet generates n cells from the seed and stands up a fresh
// coordinator for them: store, queue (CLI defaults: batches of 4, 30 s
// TTL), server, client.
func buildWireFleet(r *run, n int) (*wireFleet, error) {
	f := &wireFleet{saved: make(map[string]core.SavedResult, n)}
	var err error
	if f.dir, err = r.scratch("registry"); err != nil {
		return nil, err
	}
	if f.store, err = resultdb.Open(f.dir); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		key := digest([]byte(fmt.Sprintf("wire_ops/%d/%d", r.seed, r.rng.Int63())))
		f.cells = append(f.cells, registry.WorkCell{Key: key, Label: fmt.Sprintf("synthetic %d", i), Group: fmt.Sprintf("group-%d", i%3)})
		f.saved[key] = syntheticResult(r)
	}
	f.queue = registry.NewWorkQueue(f.cells, registry.QueueOptions{
		Study: "wire_ops",
		Committed: func(key string) bool {
			_, ok, err := f.store.Lookup(key)
			return err == nil && ok
		},
	})
	f.http = httptest.NewServer(registry.NewServer(f.store, registry.ServerOptions{Work: f.queue}))
	if f.client, err = registry.Dial(f.http.URL, registry.ClientOptions{}); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// sameResult compares two results by their canonical encoding.
func sameResult(a, b core.SavedResult) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(x) == string(y)
}

// drain claims and settles leases until the coordinator reports the
// sweep done. Every request is one attempted operation; a request that
// errors or answers wrongly is a failed one. It returns the pass's wall
// time and request count.
func (w *wireOps) drain(r *run, f *wireFleet, pass int) (time.Duration, int, error) {
	root := r.tr.begin(-1, "benchmark.pass", pass, -1, len(f.cells))
	defer r.tr.end(root)
	c, requests := f.client, 0
	// op runs one request under a span and counts it.
	op := func(parent int, name string, cell int, fn func() (bool, error)) error {
		requests++
		r.attempted++
		id := r.tr.begin(parent, name, pass, cell, 0)
		ok, err := fn()
		r.tr.end(id)
		if err != nil {
			r.failed++
			return fmt.Errorf("%s: %w", name, err)
		}
		if !ok {
			r.failed++
		}
		return nil
	}
	start := time.Now()
	for leases := 0; ; leases++ {
		began := time.Now()
		ls := r.tr.begin(root, "registry.lease", pass, -1, 0)
		var claim registry.WorkClaim
		err := op(ls, "registry.claim", -1, func() (ok bool, err error) {
			claim, err = c.ClaimWork("bench-client")
			return claim.Done || claim.Lease != nil, err
		})
		if err != nil || claim.Done {
			r.tr.end(ls)
			return time.Since(start), requests, err
		}
		if claim.Lease == nil {
			r.tr.end(ls)
			return 0, 0, fmt.Errorf("coordinator told its only client to wait")
		}
		cells := claim.Lease.Cells
		r.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		for i, cell := range cells {
			want := f.saved[cell.Key]
			err = op(ls, "registry.lookup_miss", i, func() (bool, error) {
				_, hit, err := c.Lookup(cell.Key)
				return !hit, err
			})
			if err == nil {
				err = op(ls, "registry.put", i, func() (bool, error) { return true, c.Put(cell.Key, want) })
			}
			if err == nil {
				err = op(ls, "registry.get_hit", i, func() (bool, error) {
					got, hit := c.Get(cell.Key)
					return hit && sameResult(got, want), nil
				})
			}
			if err != nil {
				r.tr.end(ls)
				return 0, 0, err
			}
			r.cells++
		}
		if leases%2 == 1 {
			err = op(ls, "registry.heartbeat", -1, func() (bool, error) { return c.HeartbeatWork(claim.Lease.ID, nil) })
		}
		if err == nil {
			err = op(ls, "registry.complete", -1, func() (bool, error) { return c.CompleteWork(claim.Lease.ID, false, "", nil) })
		}
		r.tr.end(ls)
		if err != nil {
			return 0, 0, err
		}
		r.lat = append(r.lat, millis(time.Since(began)))
	}
}

func (w *wireOps) pass(r *run, i int) error {
	if i > 0 {
		w.teardown()
		if err := w.setup(r); err != nil {
			return err
		}
	}
	d, _, err := w.drain(r, w.fleet, i)
	if err != nil {
		return err
	}
	r.walls = append(r.walls, d)
	if i == 0 {
		// No figure here; the provenance digest covers the generated
		// records instead, so it changes with the seed.
		h := sha256.New()
		for _, c := range w.fleet.cells {
			data, err := json.Marshal(w.fleet.saved[c.Key])
			if err != nil {
				return err
			}
			h.Write(data)
		}
		r.digests["saved_results"] = hex.EncodeToString(h.Sum(nil))
	}
	if st, _ := w.fleet.queue.Status(); !st.Done || st.DoneCells != len(w.fleet.cells) || w.fleet.store.Len() != len(w.fleet.cells) {
		r.mismatch("pass %d: coordinator done=%v with %d/%d cells, store holds %d", i, st.Done, st.DoneCells, len(w.fleet.cells), w.fleet.store.Len())
	}
	return nil
}

func (w *wireOps) traced(r *run) error {
	// The reference pass left its store full: measure what a restart
	// pays to replay that manifest, and what one prefetch of the whole
	// key set costs a client, before the fleet is rebuilt.
	var opens []float64
	for i := 0; i < 5; i++ {
		d, err := timed(func() error {
			s, err := resultdb.Open(w.fleet.dir)
			if err != nil {
				return err
			}
			return s.Close()
		})
		if err != nil {
			return err
		}
		opens = append(opens, millis(d))
	}
	r.set("resultdb.open_ms", median(opens), len(opens))
	size, err := recordBytes(w.fleet.dir)
	if err != nil {
		return err
	}
	r.set("resultdb.bytes_per_record", float64(size)/float64(len(w.fleet.cells)), 0)
	keys := w.fleet.store.Keys()
	fresh, err := registry.Dial(w.fleet.http.URL, registry.ClientOptions{})
	if err != nil {
		return err
	}
	d, _ := timed(func() error { fresh.Prefetch(keys); return nil })
	fresh.Close()
	r.set("registry.prefetch_ms", millis(d), 0)

	w.teardown()
	if err := w.setup(r); err != nil {
		return err
	}
	d, requests, err := w.drain(r, w.fleet, 1)
	if err != nil {
		return err
	}
	if st, _ := w.fleet.queue.Status(); !st.Done || w.fleet.store.Len() != len(w.fleet.cells) {
		r.mismatch("traced pass: coordinator done=%v, store holds %d of %d", st.Done, w.fleet.store.Len(), len(w.fleet.cells))
	}
	spans := r.tr.snapshot()
	r.set("trace.overhead_frac", seconds(d)/seconds(r.walls[0])-1, 0)
	r.setDist("registry.claim_us", durations(spans, "registry.claim", micros, nil), 99)
	r.setDist("registry.lookup_miss_us", durations(spans, "registry.lookup_miss", micros, nil), 0)
	r.setDist("registry.get_hit_us", durations(spans, "registry.get_hit", micros, nil), 99)
	r.setDist("registry.put_us", durations(spans, "registry.put", micros, nil), 99)
	r.setDist("registry.heartbeat_us", durations(spans, "registry.heartbeat", micros, nil), 0)
	r.setDist("registry.complete_us", durations(spans, "registry.complete", micros, nil), 0)
	r.set("registry.req_per_s", float64(requests)/seconds(d), 0)
	r.set("registry.requests_per_cell", float64(requests)/float64(len(w.fleet.cells)), 0)
	r.set("registry.retries", float64(w.fleet.client.Stats().Retries), 0)
	st := w.fleet.store.Stats()
	r.set("resultdb.hit_ratio", float64(st.Hits)/float64(st.Lookups), 0)
	r.set("experiments.puts", float64(st.Puts), 0)

	// The lease manager alone, no HTTP: what of a claim or a complete
	// is lease logic and what is transport.
	bare := registry.NewWorkQueue(w.fleet.cells, registry.QueueOptions{Study: "wire_ops"})
	var claims, completes []float64
	for {
		var lease *registry.WorkLease
		var done bool
		d, _ := timed(func() error { lease, _, done, _ = bare.Claim("probe"); return nil })
		if done {
			break
		}
		claims = append(claims, float64(d.Nanoseconds()))
		d, _ = timed(func() error { bare.Complete(lease.ID, false, nil); return nil })
		completes = append(completes, float64(d.Nanoseconds()))
	}
	r.set("registry.queue_claim_ns", median(claims), len(claims))
	r.set("registry.queue_complete_ns", median(completes), len(completes))
	r.set("host.calib_ms", hostCalibMS(r.smoke), 0)
	return nil
}
