package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/resultdb"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// renderer is what every figure result offers.
type renderer interface{ Render(io.Writer) }

func render(r renderer) []byte {
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.Bytes()
}

// study is one of the paper's sweeps at the benchmark's size: the
// program's own entry point plus the cell enumeration the traced
// driver walks.
type study struct {
	name string
	// base carries the sizing (Case, NodePoints); callers add the
	// engine options.
	base  experiments.Options
	specs []experiments.CellSpec
	run   func(experiments.Options) (renderer, error)
}

// figure runs the study through the program's entry point.
func (st study) figure(opt experiments.Options) (renderer, error) {
	opt.Case, opt.NodePoints = st.base.Case, st.base.NodePoints
	return st.run(opt)
}

// fig1Quick is `hpcstudy -quick fig1`: 4 runtimes × 5 hybrid
// configurations on Lenox, one simulated step.
func fig1Quick() study {
	c := alya.ArteryCFDLenox()
	c.SimSteps = 1
	base := experiments.Options{Case: c}
	return study{"fig1", base, experiments.Fig1Specs(base), func(o experiments.Options) (renderer, error) {
		r, err := experiments.Fig1(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// fig2Quick is `hpcstudy -quick fig2` (nodes 2,4,8,16 — 80 to 640
// ranks); the smoke size keeps the 2-node point only.
func fig2Quick(smoke bool) study {
	c := alya.ArteryCFDCTEPower()
	c.SimSteps = 1
	base := experiments.Options{Case: c, NodePoints: []int{2, 4, 8, 16}}
	if smoke {
		base.NodePoints = []int{2}
	}
	return study{"fig2", base, experiments.Fig2Specs(base), func(o experiments.Options) (renderer, error) {
		r, err := experiments.Fig2(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// fig3Scale is fig3's FSI case at the single 64-node point: three
// 3,072-rank cells (192 ranks at the smoke size). experiments has no
// Fig3Specs, so the enumeration is repeated here; the traced run's
// byte comparison against experiments.Fig3 keeps the two in step.
func fig3Scale(smoke bool) study {
	c := alya.ArteryFSIMareNostrum4()
	c.ModelCGIters = 40
	base := experiments.Options{Case: c, NodePoints: []int{64}}
	if smoke {
		base.NodePoints = []int{4}
	}
	mn4 := cluster.MareNostrum4()
	var specs []experiments.CellSpec
	for _, v := range experiments.Fig2Variants() {
		for _, n := range base.NodePoints {
			specs = append(specs, experiments.CellSpec{
				Label:   fmt.Sprintf("fig3 %s %d nodes", v.Label, n),
				Cluster: mn4, Runtime: v.Runtime, Kind: v.Kind,
				Case:  c,
				Nodes: n, Ranks: n * mn4.CoresPerNode(), Threads: 1,
				Allreduce: mpi.AllreduceHierarchical,
			})
		}
	}
	return study{"fig3", base, specs, func(o experiments.Options) (renderer, error) {
		r, err := experiments.Fig3(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// cellClock recovers each cell's wall time from a sweep's progress
// events, the only per-cell signal the figure entry points expose. The
// pool claims cells in index order and a worker claims its next cell
// right after reporting the last, so cell i (i ≥ workers) started at
// the (i-workers+1)-th report. latencies fails when that reading yields
// a non-positive time — the pool's claim order changed and this
// reconstruction has to change with it.
type cellClock struct {
	start time.Time
	mu    sync.Mutex
	order []string
	at    map[string]time.Duration
}

func newCellClock() *cellClock {
	return &cellClock{start: time.Now(), at: make(map[string]time.Duration)}
}

func (c *cellClock) event(ev experiments.ProgressEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = append(c.order, ev.Label)
	c.at[ev.Label] = time.Since(c.start)
}

func (c *cellClock) latencies(specs []experiments.CellSpec, workers int) ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) != len(specs) {
		return nil, fmt.Errorf("sweep reported %d cells, want %d", len(c.order), len(specs))
	}
	out := make([]float64, len(specs))
	for i, sp := range specs {
		end, ok := c.at[sp.Label]
		if !ok {
			return nil, fmt.Errorf("sweep never reported %s", sp.Label)
		}
		began := time.Duration(0)
		if i >= workers {
			began = c.at[c.order[i-workers]]
		}
		if end <= began {
			return nil, fmt.Errorf("cell %s: reconstructed wall time %v is not positive (sweep pool no longer claims in index order)", sp.Label, end-began)
		}
		out[i] = millis(end - began)
	}
	return out, nil
}

// driven is what the traced driver learned from the cells it ran.
type driven struct {
	mu     sync.Mutex
	kernel vtime.Counters
	// cells are the simulated results in completion order.
	cells []core.Result
}

// driveStudy is the traced run's stand-in for a figure call: the
// harness walks the cells itself over the layers' exported functions —
// CellSpec.Key → Store.Lookup → Sweep.ImageFor → core.RunCell →
// Result.Saved + Store.Put — with a span around each, then lets the
// program assemble the figure from the store (FromStore) and renders
// it. Cells run on the program's own pool (Sweep.Each).
func driveStudy(tr *tracer, parent int, st study, pass int, store resultdb.Store, workers int, out *driven) ([]byte, error) {
	root := tr.begin(parent, "experiments.study", pass, -1, len(st.specs))
	defer tr.end(root)
	sweep := experiments.NewSweep(experiments.Options{Parallelism: workers})
	pool := tr.begin(root, "experiments.pool", pass, -1, workers)
	err := sweep.Each(len(st.specs), func(i int) error {
		sp := st.specs[i]
		cs := tr.begin(pool, "experiments.cell", pass, i, sp.Ranks)
		defer tr.end(cs)
		var key string
		err := tr.call(cs, "core.fingerprint", pass, i, sp.Ranks, func() (err error) {
			key, err = sp.Key()
			return err
		})
		if err != nil {
			return err
		}
		var hit bool
		err = tr.call(cs, "resultdb.lookup", pass, i, sp.Ranks, func() (err error) {
			_, hit, err = store.Lookup(key)
			return err
		})
		if err != nil || hit {
			return err
		}
		cell := core.Cell{
			Cluster: sp.Cluster, Runtime: sp.Runtime, Case: sp.Case,
			Nodes: sp.Nodes, Ranks: sp.Ranks, Threads: sp.Threads,
			Placement: sched.PlaceBlock, Mode: sp.Mode, Allreduce: sp.Allreduce,
		}
		err = tr.call(cs, "core.image_build", pass, i, sp.Ranks, func() (err error) {
			cell.Image, err = sweep.ImageFor(sp.Runtime, sp.Cluster, sp.Kind)
			return err
		})
		if err != nil {
			return err
		}
		var res core.Result
		err = tr.call(cs, "core.run_cell", pass, i, sp.Ranks, func() (err error) {
			res, err = core.RunCell(cell)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Label, err)
		}
		err = tr.call(cs, "resultdb.put", pass, i, sp.Ranks, func() error {
			return store.Put(key, res.Saved())
		})
		if err != nil {
			return err
		}
		out.mu.Lock()
		out.kernel = addCounters(out.kernel, res.Exec.MPI.Kernel)
		out.cells = append(out.cells, res)
		out.mu.Unlock()
		return nil
	})
	tr.end(pool)
	if err != nil {
		return nil, err
	}
	var fig renderer
	stats := &experiments.SweepStats{}
	err = tr.call(root, "experiments.merge", pass, -1, len(st.specs), func() (err error) {
		fig, err = st.figure(experiments.Options{Parallelism: workers, Store: store, FromStore: true, Stats: stats})
		return err
	})
	if err != nil {
		return nil, err
	}
	if n := stats.Computed.Load(); n != 0 {
		return nil, fmt.Errorf("%s: merge simulated %d cells, want 0", st.name, n)
	}
	id := tr.begin(root, "report.render", pass, -1, len(st.specs))
	text := render(fig)
	tr.end(id)
	return text, nil
}

func addCounters(a, b vtime.Counters) vtime.Counters {
	return vtime.Counters{
		Switches:    a.Switches + b.Switches,
		SyncFast:    a.SyncFast + b.SyncFast,
		PingPong:    a.PingPong + b.PingPong,
		Wakes:       a.Wakes + b.Wakes,
		WakeBatches: a.WakeBatches + b.WakeBatches,
		HeapOps:     a.HeapOps + b.HeapOps,
	}
}
