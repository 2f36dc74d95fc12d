package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/resultdb"
)

// fig3Opt builds a small fig3 configuration against a store.
func fig3Opt(store resultdb.Store, stats *SweepStats) Options {
	return Options{
		Parallelism: 4,
		Case:        tinyCase(alya.ArteryFSIMareNostrum4()),
		NodePoints:  []int{4, 8},
		Store:       store,
		Stats:       stats,
	}
}

// TestWarmCacheByteIdentical is the store's core guarantee: a warm
// rerun of a figure renders byte-identically to the cold run while
// executing zero simulations.
func TestWarmCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()

	cold, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldStats := &SweepStats{}
	coldRes, err := Fig3(fig3Opt(cold, coldStats))
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Computed.Load() == 0 || coldStats.Hits.Load() != 0 {
		t.Fatalf("cold run: %d computed, %d hits", coldStats.Computed.Load(), coldStats.Hits.Load())
	}

	// A separate Open stands in for a later process reusing the dir.
	warm, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmStats := &SweepStats{}
	warmRes, err := Fig3(fig3Opt(warm, warmStats))
	if err != nil {
		t.Fatal(err)
	}
	if got := warmStats.Computed.Load(); got != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", got)
	}
	if got := warmStats.Hits.Load(); got != 6 { // 3 variants × 2 node points
		t.Fatalf("warm run replayed %d cells, want 6", got)
	}

	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatalf("warm results differ from cold:\n%+v\n%+v", coldRes, warmRes)
	}
	var a, b bytes.Buffer
	coldRes.Render(&a)
	coldRes.RenderChart(&a)
	warmRes.Render(&b)
	warmRes.RenderChart(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("warm rendering differs from cold:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestShardedSweepMerge is the distributed contract: every 2-way
// shard split computes a disjoint slice, and a merge over the
// populated store reproduces the unsharded figure exactly without
// simulating anything.
func TestShardedSweepMerge(t *testing.T) {
	full, err := Fig3(fig3Opt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	totalComputed := int64(0)
	for k := 1; k <= 2; k++ {
		store, err := resultdb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stats := &SweepStats{}
		opt := fig3Opt(store, stats)
		opt.Shard = resultdb.Shard{Index: k, Count: 2}
		_, err = Fig3(opt)
		var miss *MissingCellsError
		switch {
		case err == nil:
			// This shard owned every cell (possible on small sweeps).
		case errors.As(err, &miss):
			if len(miss.Cells) == 0 {
				t.Fatalf("shard %d: empty missing list", k)
			}
			for _, c := range miss.Cells {
				if c.Key == "" || c.Label == "" {
					t.Fatalf("shard %d: missing cell without key/label: %+v", k, c)
				}
			}
		default:
			t.Fatalf("shard %d: %v", k, err)
		}
		totalComputed += stats.Computed.Load()
		store.Close()
	}
	// Disjoint and exhaustive: the two shards together computed each
	// of the 6 cells exactly once.
	if totalComputed != 6 {
		t.Fatalf("shards computed %d cells in total, want 6", totalComputed)
	}

	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stats := &SweepStats{}
	opt := fig3Opt(store, stats)
	opt.FromStore = true
	merged, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Computed.Load(); got != 0 {
		t.Fatalf("merge simulated %d cells, want 0", got)
	}

	var a, b bytes.Buffer
	full.Render(&a)
	full.RenderChart(&a)
	merged.Render(&b)
	merged.RenderChart(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged rendering differs from unsharded:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestFromStoreMissing asserts a merge over an unpopulated store
// fails with the full list of missing cell keys.
func TestFromStoreMissing(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opt := fig3Opt(store, nil)
	opt.FromStore = true
	_, err = Fig3(opt)
	var miss *MissingCellsError
	if !errors.As(err, &miss) {
		t.Fatalf("want MissingCellsError, got %v", err)
	}
	if len(miss.Cells) != 6 {
		t.Fatalf("missing %d cells, want all 6", len(miss.Cells))
	}
	seen := map[string]bool{}
	for _, c := range miss.Cells {
		if len(c.Key) != 64 {
			t.Fatalf("missing cell %q has malformed key %q", c.Label, c.Key)
		}
		if seen[c.Key] {
			t.Fatalf("duplicate key %s", c.Key)
		}
		seen[c.Key] = true
	}
}

// TestShardWithoutStore asserts the engine rejects shard or
// store-only sweeps with no store to meet in.
func TestShardWithoutStore(t *testing.T) {
	opt := fig3Opt(nil, nil)
	opt.Shard = resultdb.Shard{Index: 1, Count: 2}
	if _, err := Fig3(opt); err == nil {
		t.Error("sharded sweep without a store accepted")
	}
	opt = fig3Opt(nil, nil)
	opt.FromStore = true
	if _, err := Fig3(opt); err == nil {
		t.Error("store-only sweep without a store accepted")
	}
	// Portability's single Run enforces the same contract.
	if _, err := Portability(Options{FromStore: true}); err == nil {
		t.Error("store-only portability without a store accepted")
	}
}

// TestPortabilityMergeMissingLists asserts a FromStore portability
// run over an empty store reports every absent slowdown cell at once
// — one failing merge names the full outstanding set, not just the
// first cell hit.
func TestPortabilityMergeMissingLists(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, err = Portability(Options{Parallelism: 4, Store: store, FromStore: true})
	var miss *MissingCellsError
	if !errors.As(err, &miss) {
		t.Fatalf("want MissingCellsError, got %v", err)
	}
	// 4 bare-metal baselines (one per target) plus one cell per
	// runnable (source, kind, target) attempt — far more than the
	// single cell a fail-fast walk would report.
	if len(miss.Cells) < 5 {
		t.Fatalf("missing list has %d cells; fail-fast suspected:\n%v", len(miss.Cells), err)
	}
	seen := map[string]bool{}
	for _, c := range miss.Cells {
		if seen[c.Key] {
			t.Fatalf("duplicate key %s in missing list", c.Key)
		}
		seen[c.Key] = true
	}
}

// TestPortabilityShardedDisjoint asserts sharding covers portability's
// cells too: two sequential shard runs simulate each slowdown cell exactly
// once between them, and the merge reproduces the unsharded matrix.
func TestPortabilityShardedDisjoint(t *testing.T) {
	plainStats := &SweepStats{}
	plain, err := Portability(Options{Parallelism: 4, Stats: plainStats})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var computed int64
	for k := 1; k <= 2; k++ {
		store, err := resultdb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stats := &SweepStats{}
		_, err = Portability(Options{
			Parallelism: 4, Store: store, Stats: stats,
			Shard: resultdb.Shard{Index: k, Count: 2},
		})
		var miss *MissingCellsError
		if err != nil && !errors.As(err, &miss) {
			t.Fatalf("shard %d: %v", k, err)
		}
		computed += stats.Computed.Load()
		store.Close()
	}
	// Disjoint: across both shards every cell simulated exactly once —
	// the same total an unsharded run pays.
	if computed != plainStats.Computed.Load() {
		t.Fatalf("shards computed %d cells, unsharded run computed %d",
			computed, plainStats.Computed.Load())
	}

	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stats := &SweepStats{}
	merged, err := Portability(Options{Parallelism: 4, Store: store, Stats: stats, FromStore: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Computed.Load(); got != 0 {
		t.Fatalf("merge simulated %d cells, want 0", got)
	}
	var a, b bytes.Buffer
	plain.Render(&a)
	merged.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged portability differs from unsharded:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestPortabilityCached asserts the portability study's slowdown
// cells flow through the store too: a warm rerun simulates nothing
// and reproduces the matrix.
func TestPortabilityCached(t *testing.T) {
	dir := t.TempDir()
	run := func() (*PortabilityResult, *SweepStats) {
		store, err := resultdb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		stats := &SweepStats{}
		res, err := Portability(Options{Parallelism: 4, Store: store, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	cold, coldStats := run()
	if coldStats.Computed.Load() == 0 {
		t.Fatal("cold portability run simulated nothing")
	}
	warm, warmStats := run()
	if got := warmStats.Computed.Load(); got != 0 {
		t.Fatalf("warm portability run simulated %d cells, want 0", got)
	}
	var a, b bytes.Buffer
	cold.Render(&a)
	warm.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("warm portability differs:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestNegativeCacheReplaysFailures covers failure records end to end:
// a deterministically failing cell is recorded on the cold run, and
// warm sweeps replay the failure — with the exact same message —
// without simulating, distinctly from missing cells under FromStore.
func TestNegativeCacheReplaysFailures(t *testing.T) {
	mn4 := cluster.MareNostrum4()
	specs := []CellSpec{{
		Label:   "docker on mn4",
		Cluster: mn4, Runtime: container.Docker{}, Kind: container.SystemSpecific,
		Case:  reducedLenox(),
		Nodes: 2, Ranks: 2 * mn4.CoresPerNode(), Threads: 1,
	}}
	dir := t.TempDir()

	run := func(fromStore bool) (error, *SweepStats) {
		store, err := resultdb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		stats := &SweepStats{}
		_, err = NewSweep(Options{Store: store, Stats: stats, FromStore: fromStore}).Run(specs)
		return err, stats
	}

	coldErr, coldStats := run(false)
	if coldErr == nil {
		t.Fatal("docker on MN4 should fail (needs root)")
	}
	if !errors.Is(coldErr, container.ErrNeedsRoot) {
		t.Fatalf("cold failure lost its cause: %v", coldErr)
	}
	if got := coldStats.NegHits.Load(); got != 0 {
		t.Fatalf("cold run replayed %d failures", got)
	}

	warmErr, warmStats := run(false)
	if warmErr == nil {
		t.Fatal("replayed failure missing")
	}
	if warmStats.Computed.Load() != 0 || warmStats.NegHits.Load() != 1 {
		t.Fatalf("warm run computed %d, neg-hit %d; want 0 and 1",
			warmStats.Computed.Load(), warmStats.NegHits.Load())
	}
	if warmErr.Error() != coldErr.Error() {
		t.Fatalf("replayed failure differs from original:\ncold %v\nwarm %v", coldErr, warmErr)
	}
	var rec *resultdb.RecordedError
	if !errors.As(warmErr, &rec) || rec.Msg == "" {
		t.Fatalf("warm failure is not a RecordedError: %v", warmErr)
	}
	if errors.As(coldErr, &rec) {
		t.Fatal("cold failure mislabelled as replayed")
	}

	// Merge (FromStore) reports the known-bad cell as its recorded
	// failure, not as a missing cell.
	mergeErr, mergeStats := run(true)
	var miss *MissingCellsError
	if errors.As(mergeErr, &miss) {
		t.Fatalf("merge reported a recorded failure as missing: %v", mergeErr)
	}
	if !errors.As(mergeErr, &rec) {
		t.Fatalf("merge did not replay the recorded failure: %v", mergeErr)
	}
	if got := mergeStats.NegHits.Load(); got != 1 {
		t.Fatalf("merge neg-hit %d, want 1", got)
	}

	// RunOne (a lease worker's cells) replays too.
	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stats := &SweepStats{}
	_, oneErr := NewSweep(Options{Store: store, Stats: stats}).RunOne(specs[0])
	if !errors.As(oneErr, &rec) {
		t.Fatalf("RunOne did not replay the recorded failure: %v", oneErr)
	}
	if stats.Computed.Load() != 0 || stats.NegHits.Load() != 1 {
		t.Fatalf("RunOne computed %d, neg-hit %d; want 0 and 1",
			stats.Computed.Load(), stats.NegHits.Load())
	}
}

// TestPortabilityColdSimulatesEachCellOnce pins enumerate-then-Run:
// portability's slowdown cells are enumerated with one bare-metal
// baseline per target, so a cold run — with or without a store, or
// split over two shards — simulates every distinct key exactly once,
// and progress counts the same cells.
func TestPortabilityColdSimulatesEachCellOnce(t *testing.T) {
	open := func(dir string) *resultdb.DirStore {
		store, err := resultdb.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return store
	}
	// A merge over an empty store lists every distinct key once.
	var miss *MissingCellsError
	_, err := Portability(Options{Store: open(t.TempDir()), FromStore: true})
	if !errors.As(err, &miss) {
		t.Fatalf("want MissingCellsError, got %v", err)
	}
	keys := int64(len(miss.Cells))
	if keys != 14 {
		t.Fatalf("portability enumerates %d distinct cells, want 14", keys)
	}

	var mu sync.Mutex
	var events []ProgressEvent
	stats := &SweepStats{}
	if _, err := Portability(Options{Parallelism: 4, Stats: stats, Progress: func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Computed.Load(); got != keys {
		t.Fatalf("storeless run simulated %d cells, want %d", got, keys)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Done < events[j].Done })
	if int64(len(events)) != keys {
		t.Fatalf("%d progress events, want %d", len(events), keys)
	}
	for i, ev := range events {
		if ev.Done != i+1 || int64(ev.Total) != keys || ev.Cached {
			t.Fatalf("progress event %d = %+v, want %d/%d simulated", i, ev, i+1, keys)
		}
	}

	stats = &SweepStats{}
	if _, err := Portability(Options{Parallelism: 4, Store: open(t.TempDir()), Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if c, m, p := stats.Computed.Load(), stats.Misses.Load(), stats.Puts.Load(); c != keys || m != keys || p != keys {
		t.Fatalf("cold store run: %d simulated, %d misses, %d puts; want %d each", c, m, p, keys)
	}

	dir := t.TempDir()
	var computed int64
	for k := 1; k <= 2; k++ {
		stats := &SweepStats{}
		_, err := Portability(Options{
			Parallelism: 4, Store: open(dir), Stats: stats,
			Shard: resultdb.Shard{Index: k, Count: 2},
		})
		if err != nil && !errors.As(err, &miss) {
			t.Fatalf("shard %d: %v", k, err)
		}
		if k == 1 && stats.Hits.Load() != 0 {
			t.Fatalf("first shard replayed %d cells from an empty store", stats.Hits.Load())
		}
		computed += stats.Computed.Load()
	}
	if computed != keys {
		t.Fatalf("the two shards simulated %d cells between them, want %d", computed, keys)
	}
}

// TestRunOneIsRunOfOne pins RunOne to Run over a one-spec slice on
// every outcome the store discipline has: same result, same error
// shape (*CellError around the cause; a bare *MissingCellsError) and
// same counters.
func TestRunOneIsRunOfOne(t *testing.T) {
	good := Fig1Specs(Options{Case: tinyCase(alya.ArteryCFDLenox())})[0]
	mn4 := cluster.MareNostrum4()
	bad := CellSpec{
		Label:   "docker on mn4",
		Cluster: mn4, Runtime: container.Docker{}, Kind: container.SystemSpecific,
		Case:  reducedLenox(),
		Nodes: 2, Ranks: 2 * mn4.CoresPerNode(), Threads: 1,
	}
	key, err := good.Key()
	if err != nil {
		t.Fatal(err)
	}
	other := resultdb.Shard{Index: 1, Count: 2}
	if other.Owns(key) {
		other.Index = 2
	}
	type counts struct{ computed, hits, negHits, misses, puts, putErrs int64 }
	cases := []struct {
		name    string
		spec    CellSpec
		prepare bool // run the spec once first, so the store holds its outcome
		opt     Options
		want    counts
		check   func(t *testing.T, err error)
	}{
		{"cold", good, false, Options{}, counts{computed: 1, misses: 1, puts: 1}, nil},
		{"warm", good, true, Options{}, counts{hits: 1}, nil},
		{"recorded failure", bad, true, Options{}, counts{negHits: 1}, func(t *testing.T, err error) {
			ce, ok := err.(*CellError)
			if !ok || ce.Label != bad.Label {
				t.Fatalf("want *CellError for %q, got %T: %v", bad.Label, err, err)
			}
			if _, ok := ce.Err.(*resultdb.RecordedError); !ok {
				t.Fatalf("CellError wraps %T, want *RecordedError", ce.Err)
			}
		}},
		{"FromStore miss", good, false, Options{FromStore: true}, counts{misses: 1}, func(t *testing.T, err error) {
			if me, ok := err.(*MissingCellsError); !ok || len(me.Cells) != 1 || me.Cells[0].Key != key {
				t.Fatalf("want a bare *MissingCellsError naming %s, got %T: %v", key, err, err)
			}
		}},
		{"not owned", good, false, Options{Shard: other}, counts{misses: 1}, func(t *testing.T, err error) {
			if me, ok := err.(*MissingCellsError); !ok || len(me.Cells) != 1 || me.Cells[0].Label != good.Label {
				t.Fatalf("want a bare *MissingCellsError naming %q, got %T: %v", good.Label, err, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Each route gets its own identically prepared store.
			route := func(run func(*Sweep) (core.Result, error)) (core.Result, error, *SweepStats) {
				store, err := resultdb.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				if tc.prepare {
					NewSweep(Options{Store: store}).Run([]CellSpec{tc.spec})
				}
				opt := tc.opt
				opt.Store, opt.Stats = store, &SweepStats{}
				res, err := run(NewSweep(opt))
				return res, err, opt.Stats
			}
			oneRes, oneErr, oneStats := route(func(s *Sweep) (core.Result, error) { return s.RunOne(tc.spec) })
			runRes, runErr, runStats := route(func(s *Sweep) (core.Result, error) {
				res, err := s.Run([]CellSpec{tc.spec})
				if err != nil {
					return core.Result{}, err
				}
				return res[0], nil
			})
			if (tc.check == nil) != (oneErr == nil) {
				t.Fatalf("RunOne error = %v", oneErr)
			}
			if tc.check != nil {
				tc.check(t, oneErr)
				tc.check(t, runErr)
				if oneErr.Error() != runErr.Error() {
					t.Fatalf("errors differ:\nRunOne %v\nRun    %v", oneErr, runErr)
				}
			}
			if !reflect.DeepEqual(oneRes, runRes) {
				t.Fatalf("results differ:\nRunOne %+v\nRun    %+v", oneRes, runRes)
			}
			for name, st := range map[string]*SweepStats{"RunOne": oneStats, "Run": runStats} {
				got := counts{st.Computed.Load(), st.Hits.Load(), st.NegHits.Load(), st.Misses.Load(), st.Puts.Load(), st.PutErrs.Load()}
				if got != tc.want {
					t.Errorf("%s counters %+v, want %+v", name, got, tc.want)
				}
			}
			if oneStats.Kernel() != runStats.Kernel() {
				t.Errorf("kernel counters differ: RunOne %+v, Run %+v", oneStats.Kernel(), runStats.Kernel())
			}
		})
	}
}
