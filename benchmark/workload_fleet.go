package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleettrace"
	"repro/internal/registry"
	"repro/internal/resultdb"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// fleetCold is the coordinated sweep end to end: an in-process
// coordinator at the CLI's defaults and two RunWorkers, each with its
// own client and one-cell-at-a-time sweep engine, drain fig2 quick cold
// over HTTP; then a fresh client merges the figure from the store.
type fleetCold struct {
	study study
	cold  []byte
	cells []registry.WorkCell
	byKey map[string]experiments.CellSpec
	stamp string
	ttl   time.Duration
}

const fleetWorkers = 2

func (w *fleetCold) setupReps() int { return 1 }
func (w *fleetCold) teardown()      {}

// setup enumerates the study and simulates it once locally: the cold
// bytes every fleet merge must reproduce. That makes setup_s a cold
// fig2 quick sweep, which also warms the process.
func (w *fleetCold) setup(r *run) error {
	w.study, w.ttl = fig2Quick(r.smoke), 30*time.Second
	if r.smoke {
		w.ttl = 400 * time.Millisecond
	}
	w.byKey = make(map[string]experiments.CellSpec)
	var keys []string
	for _, sp := range w.study.specs {
		key, err := sp.Key()
		if err != nil {
			return err
		}
		w.cells = append(w.cells, registry.WorkCell{Key: key, Label: sp.Label, Group: sp.DeployGroup()})
		w.byKey[key] = sp
		keys = append(keys, key)
	}
	w.stamp = registry.WorkStamp(w.study.name, keys)
	fig, err := w.study.figure(experiments.Options{Parallelism: r.procs})
	if err != nil {
		return err
	}
	w.cold = render(fig)
	r.digests["figures"] = digest(w.cold)
	return nil
}

// leaseTimer times lease cycles from outside a worker: it sits in the
// worker's HTTP transport and measures from the claim request that
// preceded a completion to that completion's response. A worker's
// requests are sequential, so one pending claim is enough.
type leaseTimer struct {
	next  http.RoundTripper
	mu    sync.Mutex
	claim time.Time
	lat   []float64
}

func (t *leaseTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	claim := strings.HasSuffix(req.URL.Path, "/work/claim")
	if claim {
		t.mu.Lock()
		t.claim = time.Now()
		t.mu.Unlock()
	}
	resp, err := t.next.RoundTrip(req)
	if strings.HasSuffix(req.URL.Path, "/work/complete") {
		t.mu.Lock()
		t.lat = append(t.lat, millis(time.Since(t.claim)))
		t.mu.Unlock()
	}
	return resp, err
}

// fleetPass is what one coordinated sweep produced.
type fleetPass struct {
	wall    time.Duration
	lat     []float64
	reports []registry.WorkerReport
	kernel  vtime.Counters
	// simulated, puts and retries are summed over the workers.
	simulated, puts, retries int64
}

// sweep runs one coordinated sweep on a fresh store and merges the
// figure. journals, when non-empty, is the directory the coordinator
// and workers write their fleet journals to — the program's own
// tracing, off in the untraced run.
func (w *fleetCold) sweep(r *run, pass int, journals string) (*fleetPass, error) {
	dir, err := r.scratch("central")
	if err != nil {
		return nil, err
	}
	store, err := resultdb.Open(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	journal := func(proc string) (*telemetry.FleetJournal, error) {
		if journals == "" {
			return nil, nil
		}
		return telemetry.OpenFleetJournal(journals, proc)
	}
	cj, err := journal("coordinator")
	if err != nil {
		return nil, err
	}
	defer cj.Close()
	queue := registry.NewWorkQueue(w.cells, registry.QueueOptions{
		Study: w.study.name, LeaseTTL: w.ttl, Journal: cj,
		Committed: func(key string) bool {
			_, ok, err := store.Lookup(key)
			return err == nil && ok
		},
	})
	srv := httptest.NewServer(registry.NewServer(store, registry.ServerOptions{Work: queue, Journal: cj}))
	defer srv.Close()

	out := &fleetPass{reports: make([]registry.WorkerReport, fleetWorkers)}
	root := r.tr.begin(-1, "benchmark.pass", pass, -1, len(w.cells))
	defer r.tr.end(root)
	start := time.Now()
	errs := make([]error, fleetWorkers)
	timers := make([]*leaseTimer, fleetWorkers)
	stats := make([]*experiments.SweepStats, fleetWorkers)
	clients := make([]*registry.Client, fleetWorkers)
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("worker-%d", i+1)
		wj, err := journal(name)
		if err != nil {
			return nil, err
		}
		defer wj.Close()
		timers[i] = &leaseTimer{next: http.DefaultTransport}
		clients[i], err = registry.Dial(srv.URL, registry.ClientOptions{
			HTTPClient: &http.Client{Transport: timers[i], Timeout: 30 * time.Second},
			JitterKey:  name, Journal: wj,
		})
		if err != nil {
			return nil, err
		}
		defer clients[i].Close()
		stats[i] = &experiments.SweepStats{}
		eng := experiments.NewSweep(experiments.Options{Parallelism: 1, Store: clients[i], Stats: stats[i]})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws := r.tr.begin(root, "registry.run_worker", pass, i, 0)
			defer r.tr.end(ws)
			out.reports[i], errs[i] = registry.RunWorker(clients[i], registry.WorkerOptions{
				Name: name, Stamp: w.stamp, Parallel: 1, Journal: wj,
				Run: func(wc registry.WorkCell) error {
					sp, ok := w.byKey[wc.Key]
					if !ok {
						return fmt.Errorf("lease names unknown cell %s", wc.Key)
					}
					return r.tr.call(ws, "experiments.run_one", pass, i, sp.Ranks, func() error {
						_, err := eng.RunOne(sp)
						return err
					})
				},
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	merger, err := registry.Dial(srv.URL, registry.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer merger.Close()
	var fig renderer
	merged := &experiments.SweepStats{}
	err = r.tr.call(root, "experiments.merge", pass, -1, len(w.cells), func() (err error) {
		fig, err = w.study.figure(experiments.Options{Parallelism: r.procs, Store: merger, FromStore: true, Stats: merged})
		return err
	})
	if err != nil {
		return nil, err
	}
	id := r.tr.begin(root, "report.render", pass, -1, len(w.cells))
	text := render(fig)
	r.tr.end(id)
	out.wall = time.Since(start)

	if !bytes.Equal(text, w.cold) {
		r.mismatch("pass %d: fleet merge differs from the cold local rendering", pass)
	}
	if n := merged.Computed.Load(); n != 0 {
		r.mismatch("pass %d: merge simulated %d cells", pass, n)
	}
	r.attempted += int64(len(w.cells))
	for i, rep := range out.reports {
		r.attempted += int64(rep.Batches + rep.LeasesLost)
		r.failed += int64(rep.Failures + rep.LeasesLost)
		out.lat = append(out.lat, timers[i].lat...)
		out.kernel = addCounters(out.kernel, stats[i].Kernel())
		out.simulated += stats[i].Computed.Load()
		out.puts += stats[i].Puts.Load()
		out.retries += clients[i].Stats().Retries
	}
	if out.simulated != int64(len(w.cells)) {
		r.mismatch("pass %d: fleet simulated %d cells, want each of %d once", pass, out.simulated, len(w.cells))
	}
	return out, nil
}

func (w *fleetCold) pass(r *run, i int) error {
	p, err := w.sweep(r, i, "")
	if err != nil {
		return err
	}
	r.walls = append(r.walls, p.wall)
	r.lat = append(r.lat, p.lat...)
	r.cells += int64(len(w.cells))
	return nil
}

func (w *fleetCold) traced(r *run) error {
	journals, err := r.scratch("fleetlog")
	if err != nil {
		return err
	}
	p, err := w.sweep(r, 1, journals)
	if err != nil {
		return err
	}
	// Here the trace is the program's own: the traced pass differs
	// from the reference pass by the fleet journals being on.
	overhead := seconds(p.wall)/seconds(r.walls[0]) - 1
	r.set("trace.overhead_frac", overhead, 0)
	r.set("telemetry.journal_overhead_frac", overhead, 0)

	var fleet *fleettrace.Run
	d, err := timed(func() (err error) {
		fleet, err = fleettrace.ReadDir(journals)
		return err
	})
	if err != nil {
		return err
	}
	r.set("fleettrace.merge_ms", millis(d), 0)
	attrs, err := fleet.Attribution()
	if err != nil {
		return err
	}
	var span, simulate, wire, backoff, idle, maxSim float64
	workers := 0
	for _, a := range attrs {
		if !strings.HasPrefix(a.Proc, "worker-") {
			continue
		}
		if err := a.Validate(); err != nil {
			return err
		}
		workers++
		span += float64(a.SpanNs)
		simulate += float64(a.SimulateNs)
		wire += float64(a.WireNs)
		backoff += float64(a.BackoffNs)
		idle += float64(a.IdleNs)
		maxSim = max(maxSim, float64(a.SimulateNs))
	}
	if workers != fleetWorkers || span == 0 {
		return fmt.Errorf("fleet journals attribute %d workers over %v ns, want %d", workers, span, fleetWorkers)
	}
	r.set("fleet.simulate_frac", simulate/span, 0)
	r.set("fleet.wire_frac", wire/span, 0)
	r.set("fleet.backoff_frac", backoff/span, 0)
	r.set("fleet.idle_frac", idle/span, 0)
	r.set("fleet.imbalance", maxSim/(simulate/float64(workers)), 0)

	lost := 0
	for _, rep := range p.reports {
		lost += rep.LeasesLost
	}
	r.set("registry.leases_lost", float64(lost), 0)
	r.set("registry.retries", float64(p.retries), 0)
	r.set("experiments.sim_cells", float64(p.simulated), 0)
	r.set("experiments.puts", float64(p.puts), 0)
	r.set("experiments.replayed_cells", float64(len(w.cells)), 0)
	spans := r.tr.snapshot()
	merges := durations(spans, "experiments.merge", millis, nil)
	r.set("experiments.merge_ms", sum(merges), len(merges))
	renders := durations(spans, "report.render", micros, nil)
	r.set("report.render_us", median(renders), len(renders))
	setKernel(r, p.kernel, r.walls[0])
	r.set("host.calib_ms", hostCalibMS(r.smoke), 0)
	return nil
}
