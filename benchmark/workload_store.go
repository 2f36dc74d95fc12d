package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resultdb"
)

// storeMixed replays fig1+fig2 warm from one DirStore while synthetic
// records are committed to it and a bounded GC evicts them again: reads
// beside writes beside GC, and not one simulated cell.
type storeMixed struct {
	studies []study
	store   *resultdb.DirStore
	// cold is each study's cold rendering, which every replay must
	// reproduce; real are the keys of the cells behind it, pinned so GC
	// can only take synthetic records.
	cold      [][]byte
	real      []string
	realBytes int64
	unpin     func()
	// template is a real record committed again under synthetic keys.
	template core.SavedResult
	rounds   int
	nextKey  int
}

func (w *storeMixed) setupReps() int { return 1 }

func (w *storeMixed) teardown() {
	if w.store != nil {
		w.unpin()
		w.store.Close()
		w.store = nil
	}
}

// setup populates the store cold through the figure entry points — the
// same 32 cells sim_cold simulates — so setup_s here is a cold
// populate sweep including its commits.
func (w *storeMixed) setup(r *run) error {
	w.studies, w.rounds = []study{fig1Quick(), fig2Quick(r.smoke)}, 250
	if r.smoke {
		w.rounds = 5
	}
	dir, err := r.scratch("store")
	if err != nil {
		return err
	}
	if w.store, err = resultdb.Open(dir); err != nil {
		return err
	}
	w.unpin = func() {}
	for _, st := range w.studies {
		fig, err := st.figure(experiments.Options{Parallelism: r.procs, Store: w.store})
		if err != nil {
			return err
		}
		w.cold = append(w.cold, render(fig))
	}
	w.real = w.store.Keys()
	w.unpin = w.store.Pin(w.real)
	if w.realBytes, err = recordBytes(dir); err != nil {
		return err
	}
	var ok bool
	if w.template, ok = w.store.Get(w.real[0]); !ok {
		return fmt.Errorf("store lost %s right after the populate sweep", w.real[0])
	}
	r.digests["figures"] = digest(bytes.Join(w.cold, nil))
	return nil
}

// recordBytes sums the record files of a store directory (everything
// but its two journals).
func recordBytes(dir string) (int64, error) {
	return dirBytes(dir, func(name string) bool { return filepath.Ext(name) != ".log" })
}

func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !keep(d.Name()) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	return size, err
}

// spanStore records a span around every store call the program makes,
// so a replay through the figure entry points still tiles into lookups.
type spanStore struct {
	*resultdb.DirStore
	tr     *tracer
	parent int
}

func (s spanStore) Lookup(key string) (ent resultdb.Entry, ok bool, err error) {
	id := s.tr.begin(s.parent, "resultdb.lookup", -1, -1, 0)
	defer s.tr.end(id)
	return s.DirStore.Lookup(key)
}

// replay regenerates every study from the store and checks the bytes.
func (w *storeMixed) replay(r *run, parent, round int) error {
	rp := r.tr.begin(parent, "experiments.replay", round, -1, 0)
	defer r.tr.end(rp)
	var store resultdb.Store = w.store
	if r.tr != nil {
		store = spanStore{w.store, r.tr, rp}
	}
	for i, st := range w.studies {
		stats := &experiments.SweepStats{}
		fig, err := st.figure(experiments.Options{Parallelism: r.procs, Store: store, FromStore: true, Stats: stats})
		if err != nil {
			return err
		}
		id := r.tr.begin(rp, "report.render", round, -1, 0)
		text := render(fig)
		r.tr.end(id)
		if !bytes.Equal(text, w.cold[i]) {
			r.mismatch("round %d: warm %s differs from the cold rendering", round, st.name)
		}
		if n := stats.Computed.Load(); n != 0 {
			r.mismatch("round %d: warm %s simulated %d cells", round, st.name, n)
		}
		r.cells += int64(len(st.specs))
		r.attempted += int64(len(st.specs))
	}
	return nil
}

func (w *storeMixed) syntheticKey(r *run) string {
	w.nextKey++
	return digest([]byte(fmt.Sprintf("store_mixed/%d/%d", r.seed, w.nextKey)))
}

// rounds runs one pass: w.rounds rounds of four replays, one Put and
// one PutError in seeded order, then a GC bounded to the real records'
// size, which must evict exactly the pass's synthetic records.
func (w *storeMixed) roundsPass(r *run, pass int) (time.Duration, error) {
	root := r.tr.begin(-1, "benchmark.pass", pass, -1, w.rounds)
	defer r.tr.end(root)
	start := time.Now()
	ops := []int{0, 0, 0, 0, 1, 2}
	for round := 0; round < w.rounds; round++ {
		began := time.Now()
		rs := r.tr.begin(root, "benchmark.round", round, -1, 0)
		r.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			var err error
			switch op {
			case 0:
				err = w.replay(r, rs, round)
			case 1:
				key := w.syntheticKey(r)
				err = r.tr.call(rs, "resultdb.put", round, -1, 0, func() error { return w.store.Put(key, w.template) })
			case 2:
				key := w.syntheticKey(r)
				err = r.tr.call(rs, "resultdb.put", round, -1, 0, func() error { return w.store.PutError(key, "synthetic failure") })
			}
			if err != nil {
				return 0, err
			}
			if op != 0 {
				r.cells++
				r.attempted++
			}
		}
		if round == w.rounds-1 {
			var rep resultdb.GCReport
			err := r.tr.call(rs, "resultdb.gc", round, -1, 0, func() (err error) {
				rep, err = w.store.GC(time.Now(), resultdb.GCPolicy{MaxBytes: w.realBytes})
				return err
			})
			if err != nil {
				return 0, err
			}
			if rep.Evicted != 2*w.rounds || w.store.Len() != len(w.real) {
				r.mismatch("pass %d: gc evicted %d records and left %d, want %d and %d",
					pass, rep.Evicted, w.store.Len(), 2*w.rounds, len(w.real))
			}
		}
		r.tr.end(rs)
		r.lat = append(r.lat, millis(time.Since(began)))
	}
	return time.Since(start), nil
}

func (w *storeMixed) pass(r *run, i int) error {
	d, err := w.roundsPass(r, i)
	if err != nil {
		return err
	}
	r.walls = append(r.walls, d)
	return nil
}

func (w *storeMixed) traced(r *run) error {
	// The reference pass ran with a nil tracer; this one records.
	before := w.store.Stats()
	d, err := w.roundsPass(r, 1)
	if err != nil {
		return err
	}
	after := w.store.Stats()
	spans := r.tr.snapshot()
	r.set("trace.overhead_frac", seconds(d)/seconds(r.walls[0])-1, 0)

	lookups := float64(after.Lookups - before.Lookups)
	r.set("resultdb.hit_ratio", float64(after.Hits-before.Hits)/lookups, 0)
	r.set("resultdb.bytes_per_record", float64(w.realBytes)/float64(len(w.real)), 0)
	r.setDist("resultdb.lookup_us", durations(spans, "resultdb.lookup", micros, nil), 99)
	r.setDist("resultdb.put_us", durations(spans, "resultdb.put", micros, nil), 99)
	gc := durations(spans, "resultdb.gc", millis, nil)
	r.set("resultdb.gc_ms", median(gc), len(gc))

	replays := durations(spans, "experiments.replay", micros, nil)
	cellsPerReplay := 0
	for _, st := range w.studies {
		cellsPerReplay += len(st.specs)
	}
	replayed := float64(len(replays) * cellsPerReplay)
	r.set("experiments.replayed_cells", replayed, 0)
	r.set("experiments.replay_us_per_cell", sum(replays)/replayed, len(replays))
	r.set("experiments.puts", float64(after.Puts+after.PutErrors-before.Puts-before.PutErrors), 0)
	renders := durations(spans, "report.render", micros, nil)
	r.set("report.render_us", median(renders), len(renders))
	r.set("host.calib_ms", hostCalibMS(r.smoke), 0)
	return nil
}
