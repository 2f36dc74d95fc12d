package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/resultdb"
	"repro/internal/vtime"
)

// simSweep is sim_cold (fig1+fig2 quick, pool of -procs workers) and
// sim_scale (fig3's 64-node point, one worker): the paper's sweeps
// through the figure entry points with no store attached.
type simSweep struct {
	cold    bool
	studies []study
	workers int
	// first is the first pass's rendered bytes and kernel counters;
	// every later pass must reproduce both.
	first       []byte
	firstKernel vtime.Counters
	admitted    int
	// figWall and figText are pass 0's wall time and bytes per study.
	figWall map[string]time.Duration
	figText map[string][]byte
}

func (w *simSweep) setupReps() int { return 5 }
func (w *simSweep) teardown()      {}

// setup enumerates the studies, fingerprints and builds the images of
// every cell, and runs one small cell so the runtime's lazy set-up
// (goroutine stacks, heap growth) is not charged to the first pass.
func (w *simSweep) setup(r *run) error {
	if w.cold {
		w.studies, w.workers = []study{fig1Quick(), fig2Quick(r.smoke)}, r.procs
	} else {
		w.studies, w.workers = []study{fig3Scale(r.smoke)}, 1
	}
	for _, st := range w.studies {
		for _, sp := range st.specs {
			if _, err := sp.Key(); err != nil {
				return err
			}
			if _, err := core.BuildImageFor(sp.Runtime, sp.Cluster, sp.Kind); err != nil {
				return err
			}
		}
	}
	_, err := experiments.NewSweep(experiments.Options{Parallelism: 1}).RunOne(fig2Quick(true).specs[0])
	return err
}

func (w *simSweep) pass(r *run, i int) error {
	var text []byte
	stats := &experiments.SweepStats{}
	start := time.Now()
	if i == 0 {
		w.figWall, w.figText = make(map[string]time.Duration), make(map[string][]byte)
	}
	for _, st := range w.studies {
		clock := newCellClock()
		fig, err := st.figure(experiments.Options{Parallelism: w.workers, Stats: stats, Progress: clock.event})
		if err != nil {
			return err
		}
		b := render(fig)
		if i == 0 {
			w.figWall[st.name], w.figText[st.name] = time.Since(clock.start), b
		}
		text = append(text, b...)
		lat, err := clock.latencies(st.specs, w.workers)
		if err != nil {
			return err
		}
		r.lat = append(r.lat, lat...)
		r.cells += int64(len(st.specs))
		r.attempted += int64(len(st.specs))
	}
	r.walls = append(r.walls, time.Since(start))
	if i == 0 {
		w.first, w.firstKernel = text, stats.Kernel()
		_, w.admitted = stats.Admission()
		r.digests["figures"] = digest(text)
		return nil
	}
	if !bytes.Equal(text, w.first) {
		r.mismatch("pass %d rendered different bytes than pass 0", i)
	}
	if stats.Kernel() != w.firstKernel {
		r.mismatch("pass %d kernel counters %+v differ from pass 0 %+v", i, stats.Kernel(), w.firstKernel)
	}
	return nil
}

func (w *simSweep) traced(r *run) error {
	dir, err := r.scratch("driver-store")
	if err != nil {
		return err
	}
	store, err := resultdb.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()

	var mem *memPeak
	if !w.cold {
		mem = watchMemory()
	}
	var text []byte
	out := &driven{}
	root := r.tr.begin(-1, "benchmark.pass", 0, -1, 0)
	for _, st := range w.studies {
		b, err := driveStudy(r.tr, root, st, 0, store, w.workers, out)
		if err != nil {
			return err
		}
		text = append(text, b...)
	}
	r.tr.end(root)
	if mem != nil {
		// The three cells run one at a time, so the peak over the
		// baseline is one 3,072-rank cell's heap and stacks.
		r.set("core.bytes_per_rank", mem.stop()/float64(w.studies[0].specs[0].Ranks), 0)
	}
	if !bytes.Equal(text, w.first) {
		r.mismatch("traced driver rendered different bytes than the figure entry points")
	}
	if out.kernel != w.firstKernel {
		r.mismatch("traced driver kernel counters %+v differ from the untraced pass %+v", out.kernel, w.firstKernel)
	}
	saved, err := savedDigest(out.cells)
	if err != nil {
		return err
	}
	r.digests["saved_results"] = saved
	r.attempted += int64(len(out.cells))

	spans := r.tr.snapshot()
	tracedWall := spans[root].dur()
	r.set("trace.overhead_frac", seconds(tracedWall)/seconds(r.walls[0])-1, 0)
	setKernel(r, out.kernel, r.walls[0])
	runCell := sum(durations(spans, "core.run_cell", seconds, nil))
	setSimLayers(r, spans, out, w.workers)
	r.set("experiments.admitted_workers", float64(w.admitted), 0)

	probe, ranks := "vtime.ns_per_switch_3072p", 3072
	if w.cold {
		probe, ranks = "vtime.ns_per_switch_640p", 640
		r.set("vtime.ns_per_switch_2p", probeSwitch2p(), 0)
		if err := probeCollectives(r); err != nil {
			return err
		}
		if err := probeSetUp(r); err != nil {
			return err
		}
		fig2 := w.studies[1]
		if err := probeTap(r, fig2, w.workers, w.figWall[fig2.name], w.figText[fig2.name]); err != nil {
			return err
		}
	}
	if r.smoke {
		ranks = 64
	}
	ns := probeSwitchSkewed(ranks)
	r.set(probe, ns, 0)
	// Computed, not measured: the probe's cost per switch times the
	// workload's exact switch count, as a share of time inside RunCell.
	r.set("vtime.est_share", float64(out.kernel.Switches)*ns/1e9/runCell, 0)
	r.set("host.calib_ms", hostCalibMS(r.smoke), 0)
	return nil
}

// setKernel records the exact kernel counters of one pass and the host
// rate they were produced at.
func setKernel(r *run, k vtime.Counters, wall time.Duration) {
	r.set("vtime.switches", float64(k.Switches), 0)
	r.set("vtime.heap_ops", float64(k.HeapOps), 0)
	r.set("vtime.wakes", float64(k.Wakes), 0)
	r.set("vtime.wake_batches", float64(k.WakeBatches), 0)
	r.set("vtime.sync_fast", float64(k.SyncFast), 0)
	r.set("vtime.pingpong_hits", float64(k.PingPong), 0)
	if d := k.Switches + k.SyncFast; d > 0 {
		r.set("vtime.fast_ratio", float64(k.SyncFast+k.PingPong)/float64(d), 0)
	}
	r.set("vtime.switches_per_s", float64(k.Switches)/seconds(wall), 0)
}

// setSimLayers derives the core, experiments, resultdb and mpi metrics
// of a traced pass from its spans and the results the driver collected.
func setSimLayers(r *run, spans []span, out *driven, workers int) {
	for _, class := range []int{80, 640, 3072} {
		v := durations(spans, "core.run_cell", millis, func(s span) bool { return s.n == class })
		if len(v) > 0 {
			r.set(fmt.Sprintf("core.cell_ms_r%d", class), median(v), len(v))
		}
	}
	fp := durations(spans, "core.fingerprint", micros, nil)
	r.set("core.fingerprint_us", median(fp), len(fp))

	r.set("experiments.sim_cells", float64(len(out.cells)), 0)
	// The driver starts on an empty store: every cell is one miss, one
	// simulation and one commit.
	r.set("experiments.misses", float64(len(out.cells)), 0)
	r.set("experiments.puts", float64(len(out.cells)), 0)
	// Busy share of the pool: the slowest cell of a sweep leaves the
	// other worker idle at the end.
	cells := sum(durations(spans, "experiments.cell", seconds, nil))
	pool := sum(durations(spans, "experiments.pool", seconds, nil))
	r.set("experiments.pool_util", cells/(float64(workers)*pool), 0)
	merges := durations(spans, "experiments.merge", millis, nil)
	renders := durations(spans, "report.render", micros, nil)
	r.set("experiments.replayed_cells", float64(len(out.cells)), 0)
	r.set("experiments.merge_ms", sum(merges), len(merges))
	r.set("experiments.replay_us_per_cell", sum(merges)*1e3/float64(len(out.cells)), 0)
	r.set("report.render_us", median(renders), len(renders))

	r.setDist("resultdb.lookup_us", durations(spans, "resultdb.lookup", micros, nil), 99)
	r.setDist("resultdb.put_us", durations(spans, "resultdb.put", micros, nil), 99)

	var msgs, bytesSent, steps, comm float64
	for _, res := range out.cells {
		msgs += float64(res.Exec.MPI.TotalMessages)
		bytesSent += float64(res.Exec.MPI.TotalBytes)
		steps += float64(res.Cell.Case.SimSteps)
		comm += float64(res.Exec.MPI.AvgCommTime) / float64(res.Exec.MPI.End)
	}
	r.set("mpi.msgs_per_step", msgs/steps, 0)
	r.set("mpi.bytes_per_step", bytesSent/steps, 0)
	r.set("mpi.comm_frac_sim", comm/float64(len(out.cells)), 0)
}

// savedDigest is the sha256 over the cells' canonical SavedResults,
// sorted so pool scheduling cannot reorder them.
func savedDigest(cells []core.Result) (string, error) {
	records := make([]string, len(cells))
	for i, res := range cells {
		data, err := json.Marshal(res.Saved())
		if err != nil {
			return "", err
		}
		records[i] = string(data)
	}
	sort.Strings(records)
	return digest([]byte(strings.Join(records, "\n"))), nil
}

// memPeak samples the Go heap and stacks in use until stopped.
type memPeak struct {
	base float64
	peak float64
	quit chan struct{}
	done sync.WaitGroup
}

func inUse() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse + m.StackInuse)
}

func watchMemory() *memPeak {
	runtime.GC()
	p := &memPeak{base: inUse(), quit: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-t.C:
				p.peak = math.Max(p.peak, inUse())
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the peak over the baseline.
func (p *memPeak) stop() float64 {
	close(p.quit)
	p.done.Wait()
	return math.Max(p.peak-p.base, 0)
}

// simReal runs the quick CFD and FSI cases with real numerics on every
// cluster, bare metal and Singularity, 1 and 2 threads per rank,
// straight through core.RunCell.
type simReal struct {
	cells []core.Cell
	first []byte
}

func (w *simReal) setupReps() int { return 9 }
func (w *simReal) teardown()      {}

func (w *simReal) setup(r *run) error {
	steps, clusters := 5, cluster.All()
	if r.smoke {
		steps, clusters = 2, clusters[:1]
	}
	w.cells = nil
	for _, cl := range clusters {
		for _, rt := range []container.Runtime{container.BareMetal{}, container.Singularity{Version: "2.5.1"}} {
			img, err := core.BuildImageFor(rt, cl, container.SystemSpecific)
			if err != nil {
				return err
			}
			for _, cs := range []alya.Case{alya.QuickCFD(steps), alya.QuickFSI(steps)} {
				for _, threads := range []int{1, 2} {
					w.cells = append(w.cells, core.Cell{
						Cluster: cl, Runtime: rt, Image: img, Case: cs,
						Nodes: 2, Ranks: 8, Threads: threads, Mode: alya.ModeReal,
					})
				}
			}
		}
	}
	warm := w.cells[0]
	warm.Case = alya.QuickCFD(1)
	_, err := core.RunCell(warm)
	return err
}

// sweep runs every cell in order under tr (nil: untimed spans) and
// renders the results as one table, the workload's artifact.
func (w *simReal) sweep(tr *tracer, parent int) ([]core.Result, []time.Duration, []byte, error) {
	results := make([]core.Result, len(w.cells))
	took := make([]time.Duration, len(w.cells))
	t := report.NewTable("Quick CFD/FSI cells, real numerics", "cluster", "runtime", "case", "threads", "time/step [s]", "CG iters/step", "max|div u|")
	for i, c := range w.cells {
		start := time.Now()
		err := tr.call(parent, "core.run_cell", 0, i, c.Ranks, func() (err error) {
			results[i], err = core.RunCell(c)
			return err
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s %s %s: %w", c.Cluster.Name, c.Runtime.Name(), c.Case.Name, err)
		}
		took[i] = time.Since(start)
		e := results[i].Exec
		t.AddRow(c.Cluster.Name, c.Runtime.Name(), c.Case.Name, c.Threads,
			fmt.Sprintf("%.9g", float64(e.TimePerStep)), fmt.Sprintf("%.3f", e.AvgCGIters), fmt.Sprintf("%.3e", e.MaxDivergence))
	}
	var buf bytes.Buffer
	id := tr.begin(parent, "report.render", 0, -1, len(w.cells))
	t.Render(&buf)
	tr.end(id)
	return results, took, buf.Bytes(), nil
}

func (w *simReal) pass(r *run, i int) error {
	start := time.Now()
	results, took, text, err := w.sweep(nil, -1)
	if err != nil {
		return err
	}
	r.walls = append(r.walls, time.Since(start))
	for j, d := range took {
		r.lat = append(r.lat, millis(d))
		if e := results[j].Exec; math.IsNaN(e.MaxDivergence) || e.AvgCGIters <= 0 || e.TimePerStep <= 0 {
			r.mismatch("cell %d: implausible result %+v", j, e)
		}
	}
	r.cells += int64(len(w.cells))
	r.attempted += int64(len(w.cells))
	if i == 0 {
		w.first = text
		r.digests["figures"] = digest(text)
	} else if !bytes.Equal(text, w.first) {
		r.mismatch("pass %d rendered different bytes than pass 0", i)
	}
	return nil
}

func (w *simReal) traced(r *run) error {
	root := r.tr.begin(-1, "benchmark.pass", 0, -1, len(w.cells))
	results, took, text, err := w.sweep(r.tr, root)
	r.tr.end(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(text, w.first) {
		r.mismatch("traced pass rendered different bytes than the untraced pass")
	}
	saved, err := savedDigest(results)
	if err != nil {
		return err
	}
	r.digests["saved_results"] = saved
	r.attempted += int64(len(w.cells))

	spans := r.tr.snapshot()
	r.set("trace.overhead_frac", seconds(spans[root].dur())/seconds(r.walls[0])-1, 0)
	var kernel vtime.Counters
	var wall time.Duration
	var steps, iters, msgs, bytesSent, comm float64
	// Cells come in (1 thread, 2 threads) pairs of one configuration.
	var speedup []float64
	for i, res := range results {
		kernel = addCounters(kernel, res.Exec.MPI.Kernel)
		wall += took[i]
		steps += float64(res.Cell.Case.SimSteps)
		iters += res.Exec.AvgCGIters
		msgs += float64(res.Exec.MPI.TotalMessages)
		bytesSent += float64(res.Exec.MPI.TotalBytes)
		comm += float64(res.Exec.MPI.AvgCommTime) / float64(res.Exec.MPI.End)
		if i%2 == 1 {
			speedup = append(speedup, float64(results[i-1].Exec.TimePerStep)/float64(res.Exec.TimePerStep))
		}
	}
	setKernel(r, kernel, r.walls[0])
	n := float64(len(results))
	r.set("alya.real_ms_per_step", millis(wall)/steps, len(results))
	r.set("krylov.cg_iters_per_step", iters/n, 0)
	r.set("omp.threads2_speedup_sim", sum(speedup)/float64(len(speedup)), 0)
	r.set("mpi.msgs_per_step", msgs/steps, 0)
	r.set("mpi.bytes_per_step", bytesSent/steps, 0)
	r.set("mpi.comm_frac_sim", comm/n, 0)
	r.set("experiments.sim_cells", n, 0)
	renders := durations(spans, "report.render", micros, nil)
	r.set("report.render_us", median(renders), len(renders))
	halo, err := probeHalo(true)
	if err != nil {
		return err
	}
	r.set("mpi.us_per_halo_real", halo, 0)
	ns := probeSwitch2p()
	r.set("vtime.ns_per_switch_2p", ns, 0)
	r.set("vtime.est_share", float64(kernel.Switches)*ns/1e9/seconds(wall), 0)
	r.set("host.calib_ms", hostCalibMS(r.smoke), 0)
	return nil
}
