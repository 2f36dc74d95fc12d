// Command alyasim runs a single simulation cell — one (cluster,
// runtime, image technique, case, configuration) combination — and
// prints its deployment and execution breakdown.
//
// Examples:
//
//	alyasim -cluster MareNostrum4 -runtime Singularity -kind self-contained \
//	        -case fsi-mn4 -nodes 16 -threads 1
//	alyasim -cluster Lenox -runtime Docker -case cfd-lenox -nodes 4 -ranks 56 -threads 2
//	alyasim -cluster Lenox -runtime Bare-metal -case quick-cfd -mode real -nodes 2 -ranks 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h: the FlagSet printed the usage; not a failure
		}
		var ue usageError
		if errors.As(err, &ue) {
			// The FlagSet already printed the parse error and usage.
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "alyasim:", err)
		os.Exit(1)
	}
}

// usageError marks flag-parse failures the FlagSet has already
// reported to stderr; main answers them with exit code 2 and no
// duplicate message.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying cause (flag.ErrHelp in particular).
func (e usageError) Unwrap() error { return e.err }

// run is the whole CLI behind the process boundary: parse args,
// execute the cell, print the breakdown into w. Tests drive it
// directly.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("alyasim", flag.ContinueOnError)
	var (
		clusterName = fs.String("cluster", "Lenox", "Lenox | MareNostrum4 | CTE-POWER | ThunderX")
		runtimeName = fs.String("runtime", "Singularity", "Bare-metal | Docker | Singularity | Shifter")
		kindName    = fs.String("kind", "system-specific", "system-specific | self-contained")
		caseName    = fs.String("case", "quick-cfd", "cfd-lenox | cfd-ctepower | fsi-mn4 | quick-cfd | quick-fsi")
		nodes       = fs.Int("nodes", 2, "allocation size in nodes")
		ranks       = fs.Int("ranks", 0, "MPI ranks (default nodes × cores/node ÷ threads)")
		threads     = fs.Int("threads", 1, "OpenMP threads per rank")
		modeName    = fs.String("mode", "model", "model | real")
		algoName    = fs.String("allreduce", "recursive-doubling", "recursive-doubling | ring | reduce+bcast | hierarchical")
		steps       = fs.Int("steps", 0, "override simulated steps (0 = case default)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	cl, err := cluster.ByName(*clusterName)
	if err != nil {
		return err
	}
	rt, err := container.ByName(*runtimeName)
	if err != nil {
		return err
	}

	kind := container.SystemSpecific
	switch *kindName {
	case "system-specific":
	case "self-contained":
		kind = container.SelfContained
	default:
		return fmt.Errorf("unknown build kind %q", *kindName)
	}

	var cs alya.Case
	switch *caseName {
	case "cfd-lenox":
		cs = alya.ArteryCFDLenox()
	case "cfd-ctepower":
		cs = alya.ArteryCFDCTEPower()
	case "fsi-mn4":
		cs = alya.ArteryFSIMareNostrum4()
	case "quick-cfd":
		cs = alya.QuickCFD(5)
	case "quick-fsi":
		cs = alya.QuickFSI(5)
	default:
		return fmt.Errorf("unknown case %q", *caseName)
	}
	if *steps > 0 {
		cs.Steps = *steps
		if cs.SimSteps > *steps {
			cs.SimSteps = *steps
		}
	}

	mode := alya.ModeModel
	switch *modeName {
	case "model":
	case "real":
		mode = alya.ModeReal
	default:
		return fmt.Errorf("unknown mode %q", *modeName)
	}

	var algo mpi.AllreduceAlgo
	switch *algoName {
	case "recursive-doubling":
		algo = mpi.AllreduceRecursiveDoubling
	case "ring":
		algo = mpi.AllreduceRing
	case "reduce+bcast":
		algo = mpi.AllreduceReduceBcast
	case "hierarchical":
		algo = mpi.AllreduceHierarchical
	default:
		return fmt.Errorf("unknown allreduce algorithm %q", *algoName)
	}

	r := *ranks
	if r == 0 {
		r = *nodes * cl.CoresPerNode() / *threads
	}

	img, err := core.BuildImageFor(rt, cl, kind)
	if err != nil {
		return err
	}

	res, err := core.RunCell(core.Cell{
		Cluster: cl, Runtime: rt, Image: img, Case: cs,
		Nodes: *nodes, Ranks: r, Threads: *threads,
		Placement: sched.PlaceBlock, Mode: mode, Allreduce: algo,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "cell: %s / %s (%s) / %s  —  %d nodes × %d ranks × %d threads [%v]\n",
		cl.Name, rt.Name(), *kindName, cs.Name, *nodes, r, *threads, mode)
	if img != nil {
		fmt.Fprintf(w, "image:      %s  %v (%v compressed, %s)\n",
			img.Ref(), img.Size(), img.CompressedSize(), img.Format)
	}
	fmt.Fprintf(w, "deploy:     total %v  (pull %v, convert %v, stage %v, start %v)\n",
		res.Deploy.Total(), res.Deploy.PullTime, res.Deploy.ConvertTime,
		res.Deploy.StageTime, res.Deploy.StartTime)
	fmt.Fprintf(w, "fabric:     %s\n", res.Exec.FabricPath)
	fmt.Fprintf(w, "launch:     %v\n", res.Exec.LaunchTime)
	fmt.Fprintf(w, "time/step:  %v\n", res.Exec.TimePerStep)
	fmt.Fprintf(w, "elapsed:    %v  (%d steps)\n", res.Exec.Elapsed, cs.Steps)
	fmt.Fprintf(w, "mpi:        %d messages, %v payload, max comm %v\n",
		res.Exec.MPI.TotalMessages, res.Exec.MPI.TotalBytes, res.Exec.MPI.MaxCommTime)
	if mode == alya.ModeReal {
		fmt.Fprintf(w, "solver:     avg CG iters/step %.1f, final max|div u| %.3e\n",
			res.Exec.AvgCGIters, res.Exec.MaxDivergence)
	}
	return nil
}
