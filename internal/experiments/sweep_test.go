package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
)

// tinyCase shrinks a paper case to a few CG iterations: enough solver
// structure to exercise every sweep path while keeping the determinism
// matrix (each figure × two parallelism levels) cheap.
func tinyCase(c alya.Case) alya.Case {
	c.SimSteps = 1
	c.ModelCGIters = 5
	return c
}

// TestSweepDeterminism is the engine's core guarantee: every figure is
// deep-equal between a serial sweep and a heavily parallel one. The
// cells are independent virtual-time simulations and the engine
// reassembles results in input order, so parallelism must not change a
// single number.
func TestSweepDeterminism(t *testing.T) {
	opts := func(parallelism int, cs alya.Case, nodes []int) Options {
		return Options{Parallelism: parallelism, Case: cs, NodePoints: nodes}
	}
	figures := []struct {
		name  string
		cs    alya.Case
		nodes []int
		run   func(Options) (interface{}, error)
	}{
		{"fig1", tinyCase(alya.ArteryCFDLenox()), nil,
			func(o Options) (interface{}, error) { return Fig1(o) }},
		{"fig2", tinyCase(alya.ArteryCFDCTEPower()), []int{2, 4},
			func(o Options) (interface{}, error) { return Fig2(o) }},
		{"fig3", tinyCase(alya.ArteryFSIMareNostrum4()), []int{4, 8},
			func(o Options) (interface{}, error) { return Fig3(o) }},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			serial, err := fig.run(opts(1, fig.cs, fig.nodes))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := fig.run(opts(8, fig.cs, fig.nodes))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s differs between parallelism 1 and 8:\n%+v\n%+v",
					fig.name, serial, parallel)
			}
		})
	}
}

// TestSweepImageMemoization asserts the engine builds each distinct
// (runtime, cluster, technique) image exactly once, however many cells
// and goroutines request it.
func TestSweepImageMemoization(t *testing.T) {
	sw := NewSweep(Options{Parallelism: 8})
	lenox := cluster.Lenox()
	sing := container.Singularity{Version: "2.5.1"}

	var first *container.Image
	var mu sync.Mutex
	err := sw.Each(16, func(i int) error {
		img, err := sw.ImageFor(sing, lenox, container.SystemSpecific)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = img
		} else if first != img {
			return errors.New("memoized image rebuilt")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no image built")
	}

	// A different technique, cluster, or runtime version is a distinct
	// key and must not collide.
	other, err := sw.ImageFor(sing, lenox, container.SelfContained)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("self-contained build collided with system-specific")
	}
	older, err := sw.ImageFor(container.Singularity{Version: "2.4.5"}, lenox, container.SystemSpecific)
	if err != nil {
		t.Fatal(err)
	}
	if older == first {
		t.Fatal("different runtime version collided")
	}

	// Bare metal memoizes its nil image without error.
	bare, err := sw.ImageFor(container.BareMetal{}, lenox, container.SystemSpecific)
	if err != nil {
		t.Fatal(err)
	}
	if bare != nil {
		t.Fatalf("bare metal image %v", bare)
	}
}

// TestSweepEachOrderAndErrors covers the pool's contracts: every index
// runs exactly once, output slots are disjoint, and the lowest-index
// error wins regardless of completion order.
func TestSweepEachOrderAndErrors(t *testing.T) {
	sw := NewSweep(Options{Parallelism: 4})

	const n = 64
	var ran [n]atomic.Int32
	out := make([]int, n)
	if err := sw.Each(n, func(i int) error {
		ran[i].Add(1)
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
		if out[i] != i*i {
			t.Fatalf("slot %d = %d", i, out[i])
		}
	}

	// Errors at several indices: the lowest one is reported.
	err := sw.Each(n, func(i int) error {
		if i == 7 || i == 3 || i == 40 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("lowest-index error not reported: %v", err)
	}

	if err := sw.Each(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty sweep errored: %v", err)
	}
}

// TestSweepRunWrapsErrors asserts a failing cell surfaces its label and
// the underlying cause through errors.Is.
func TestSweepRunWrapsErrors(t *testing.T) {
	mn4 := cluster.MareNostrum4()
	specs := []CellSpec{{
		Label:   "docker on mn4",
		Cluster: mn4, Runtime: container.Docker{}, Kind: container.SystemSpecific,
		Case:  reducedLenox(),
		Nodes: 2, Ranks: 2 * mn4.CoresPerNode(), Threads: 1,
	}}
	_, err := NewSweep(Options{}).Run(specs)
	if err == nil {
		t.Fatal("docker on MN4 should fail (needs root)")
	}
	if !errors.Is(err, container.ErrNeedsRoot) {
		t.Fatalf("cause not preserved: %v", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Label != "docker on mn4" {
		t.Fatalf("label not preserved: %v", err)
	}
}

// TestAdmittedWorkers tables the admission rule Sweep.Run and the lease
// worker share: the largest cell of the enumeration weighs every
// worker, RankBudget caps their sum, and one worker always runs.
func TestAdmittedWorkers(t *testing.T) {
	for _, tc := range []struct {
		ranks     []int
		requested int
		want      int
	}{
		{nil, 8, 8},              // nothing to weigh: unclamped
		{[]int{640}, 8, 8},       // fig2's largest cell: 51 would fit
		{[]int{80, 12288}, 8, 2}, // fig3's largest cell, anywhere in the list, clamps
		{[]int{12288}, 2, 2},     // already within the budget
		{[]int{RankBudget / 2}, 64, 2},
		{[]int{RankBudget}, 8, 1},
		{[]int{RankBudget + 1}, 8, 1}, // over budget still runs, alone
		{[]int{640}, 0, 1},            // a pool is never empty
	} {
		specs := make([]CellSpec, len(tc.ranks))
		for i, r := range tc.ranks {
			specs[i].Ranks = r
		}
		if got := AdmittedWorkers(specs, tc.requested); got != tc.want {
			t.Errorf("AdmittedWorkers(ranks %v, requested %d) = %d, want %d", tc.ranks, tc.requested, got, tc.want)
		}
	}
}

// TestAdmissionTracking covers the rank-budget observability: the
// stats record how many workers a compute phase requested vs how many
// RankBudget admitted, the tightest observation wins, and an
// unclamped sweep reports full admission.
func TestAdmissionTracking(t *testing.T) {
	var st SweepStats
	if req, adm := st.Admission(); req != 0 || adm != 0 {
		t.Fatalf("zero stats report admission %d/%d", adm, req)
	}
	st.NoteAdmission(16, 16)
	st.NoteAdmission(16, 2) // tighter: wins
	st.NoteAdmission(16, 8) // looser: ignored
	if req, adm := st.Admission(); req != 16 || adm != 2 {
		t.Fatalf("admission = %d/%d, want 2/16", adm, req)
	}

	// An oversized cell clamps the pool before any simulation: 16384
	// ranks fit only twice in the budget, so 64 requested workers
	// admit 2. The cell itself fails fast (it exceeds Lenox), which is
	// all this test needs — admission is recorded before execution.
	stats := &SweepStats{}
	specs := []CellSpec{{
		Label:   "oversized",
		Cluster: cluster.Lenox(), Runtime: container.BareMetal{},
		Case:  reducedLenox(),
		Nodes: 4, Ranks: RankBudget / 2, Threads: 1,
	}}
	if _, err := NewSweep(Options{Parallelism: 64, Stats: stats}).Run(specs); err == nil {
		t.Fatal("oversized cell ran")
	}
	if req, adm := stats.Admission(); req != 64 || adm != 2 {
		t.Fatalf("clamped admission = %d/%d, want 2/64", adm, req)
	}

	// A small sweep at small parallelism is not clamped.
	stats = &SweepStats{}
	opt := Options{Parallelism: 2, Stats: stats, Case: tinyCase(alya.ArteryFSIMareNostrum4()), NodePoints: []int{4}}
	if _, err := Fig3(opt); err != nil {
		t.Fatal(err)
	}
	if req, adm := stats.Admission(); req != 2 || adm != 2 {
		t.Fatalf("unclamped admission = %d/%d, want 2/2", adm, req)
	}
}
