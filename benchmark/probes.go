package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/vtime"
)

// Layer probes: small fixed loops through one layer's exported entry
// point, so a layer has a number of its own that the workload's
// end-to-end time can be tiled against. Each returns wall time per
// operation; the operation counts are fixed, so two commits compare.

// probeSwitch2p is the rendezvous pattern: two procs alternating
// Block/Wake, two switches per round. ns per switch.
func probeSwitch2p() float64 {
	const rounds = 100_000
	s := vtime.NewScheduler(2)
	procs := s.Procs()
	start := time.Now()
	s.Run(func(p *vtime.Proc) {
		peer := procs[1-p.ID]
		if p.ID == 1 {
			p.Block("start")
		} else {
			p.Advance(units.Microsecond)
			p.Sync()
		}
		for i := 0; i < rounds; i++ {
			p.Wake(peer, p.Now())
			p.Block("pingpong")
		}
		if p.ID == 0 {
			p.Wake(peer, p.Now())
		}
	})
	return float64(time.Since(start).Nanoseconds()) / float64(s.Counters().Switches)
}

// probeSwitchSkewed drives n procs with uneven advances, so the run
// queue holds n entries and reorders constantly — the heap traffic of
// an n-rank cell. About 400k switches whatever n. ns per switch.
func probeSwitchSkewed(n int) float64 {
	rounds := 400_000 / n
	s := vtime.NewScheduler(n)
	start := time.Now()
	s.Run(func(p *vtime.Proc) {
		step := units.Seconds(p.ID%7+1) * units.Microsecond
		for i := 0; i < rounds; i++ {
			p.Advance(step)
			p.Sync()
		}
	})
	return float64(time.Since(start).Nanoseconds()) / float64(s.Counters().Switches)
}

// probeWorld is CTE-POWER's MPI view: 40 ranks per node, shared memory
// inside a node and the native fabric between nodes.
func probeWorld(ranks int) mpi.Config {
	cl := cluster.CTEPower()
	rpn := cl.CoresPerNode()
	shm, inter := cl.SharedMemTransport(), cl.Interconnect.Native
	return mpi.Config{
		Ranks:  ranks,
		Nodes:  (ranks + rpn - 1) / rpn,
		NodeOf: func(r int) int { return r / rpn },
		Path: func(src, dst int) *fabric.Transport {
			if src/rpn == dst/rpn {
				return &shm
			}
			return &inter
		},
		ComputeDilation: 1,
	}
}

// probeAllreduce runs rounds scalar allreduces — the CG dot product of
// every model step — on a world of the given size. It returns wall µs
// and kernel switches per allreduce (world spawn and join included,
// amortised over the rounds).
func probeAllreduce(ranks, rounds int) (us, switches float64, err error) {
	start := time.Now()
	st, err := mpi.Run(probeWorld(ranks), func(r *mpi.Rank) {
		v := float64(r.ID())
		for i := 0; i < rounds; i++ {
			v = r.AllreduceScalar(v, mpi.OpSum) / float64(r.Size())
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return micros(time.Since(start)) / float64(rounds), float64(st.Kernel.Switches) / float64(rounds), nil
}

// probeHalo is the halo exchange of one solver sweep: 80 ranks in a
// chain (two nodes) swap 4,096 doubles with both neighbours, either as
// real payloads or as size-only model messages. Wall µs per exchange
// round of the whole world.
func probeHalo(realPayload bool) (float64, error) {
	const ranks, rounds, n = 80, 100, 4096
	start := time.Now()
	_, err := mpi.Run(probeWorld(ranks), func(r *mpi.Rank) {
		var snd, rcvL, rcvR []float64
		if realPayload {
			snd, rcvL, rcvR = make([]float64, n), make([]float64, n), make([]float64, n)
		}
		left, right := r.ID()-1, r.ID()+1
		for i := 0; i < rounds; i++ {
			var reqs []*mpi.Request
			for _, peer := range []int{left, right} {
				if peer < 0 || peer >= r.Size() {
					continue
				}
				if realPayload {
					rcv := rcvL
					if peer == right {
						rcv = rcvR
					}
					reqs = append(reqs, r.Irecv(peer, i, rcv), r.Isend(peer, i, snd))
				} else {
					reqs = append(reqs, r.IrecvModel(peer, i, n), r.IsendModel(peer, i, n))
				}
			}
			r.Wait(reqs...)
		}
	})
	return micros(time.Since(start)) / rounds, err
}

// probeCollectives records the mpi layer's probes.
func probeCollectives(r *run) error {
	p640, rounds := 640, 50
	if r.smoke {
		p640, rounds = 80, 20
	}
	us, _, err := probeAllreduce(8, 2000)
	if err != nil {
		return err
	}
	r.set("mpi.us_per_allreduce_p8", us, 0)
	us, sw, err := probeAllreduce(p640, rounds)
	if err != nil {
		return err
	}
	r.set("mpi.us_per_allreduce_p640", us, 0)
	r.set("mpi.switches_per_allreduce", sw, 0)
	if us, err = probeHalo(false); err != nil {
		return err
	}
	r.set("mpi.us_per_halo_model", us, 0)
	return nil
}

// repoFile resolves a path relative to the module root, found by
// walking up from the working directory (the driver runs from the
// root, go test from the package directory).
func repoFile(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, rel), nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = up
	}
}

// probeSetUp times what a sweep pays before its first cell: compiling
// the shipped fig2-quick scenario, and building one image.
func probeSetUp(r *run) error {
	path, err := repoFile("examples/scenarios/fig2-quick.json")
	if err != nil {
		return err
	}
	sp, err := scenario.ParseSpecFile(path)
	if err != nil {
		return err
	}
	var compile, build []float64
	for i := 0; i < 20; i++ {
		d, err := timed(func() error {
			_, err := sp.Compile()
			return err
		})
		if err != nil {
			return err
		}
		compile = append(compile, micros(d))
		d, err = timed(func() error {
			_, err := core.BuildImageFor(container.Singularity{Version: "2.5.1"}, cluster.CTEPower(), container.SystemSpecific)
			return err
		})
		if err != nil {
			return err
		}
		build = append(build, micros(d))
	}
	r.set("scenario.compile_us", median(compile), len(compile))
	r.set("core.image_build_us", median(build), len(build))
	return nil
}

// probeTap measures the cost of looking: the study again with the
// program's own telemetry tap on (Options.TraceDir), against its
// untraced wall time off; then the size of what the tap wrote and the
// time to analyse it.
func probeTap(r *run, st study, workers int, off time.Duration, want []byte) error {
	dir, err := r.scratch("tap")
	if err != nil {
		return err
	}
	var fig renderer
	on, err := timed(func() (err error) {
		fig, err = st.figure(experiments.Options{Parallelism: workers, TraceDir: dir})
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(render(fig), want) {
		r.mismatch("%s rendered different bytes with the telemetry tap on", st.name)
	}
	r.attempted += int64(len(st.specs))
	r.set("telemetry.tap_overhead_frac", seconds(on)/seconds(off)-1, 0)
	size, err := dirBytes(dir, func(string) bool { return true })
	if err != nil {
		return err
	}
	r.set("telemetry.trace_bytes_per_cell", float64(size)/float64(len(st.specs)), 0)
	d, err := timed(func() error {
		ps, err := profile.ReadDir(dir)
		if err != nil {
			return err
		}
		profile.Summary(io.Discard, ps)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("profile.analyze_ms", millis(d), 0)
	return nil
}
