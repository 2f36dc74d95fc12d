// Command benchjson is the perf gate: it compares two result files
// written by `go run ./benchmark -out` (a provenance block plus
// runs[]), normally the newest committed bench/BENCH_<pr>.json against
// a fresh run.
//
//	benchjson compare [-threshold 1.5] old.json new.json
//
// Run it from the repository root: metric direction and the end-to-end
// bounds come from ./BENCHMARK.json. Runs are matched by (workload,
// traced). One half of the gate is exact and machine-independent: a run
// with correct=false, a risen fail_frac, a differing digest (on
// store_mixed and wire_ops only when both files used one seed) or a
// differing kernel counter fails. The other half is thresholded:
// vtime.ns_per_switch_* and mpi.us_per_allreduce_* fail when worse by
// more than -threshold (1.5 = +150 %, wide enough for the spread
// between hosts); a 0 on either side means the workload does not
// measure it. End-to-end timings are printed against their bounds but
// only advise until ROADMAP item 1(c) normalises them by
// host.calib_ms. Exit status: 0 pass, 1 regression, 2 usage or I/O.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// exactCounters are pure functions of the simulated cells.
var exactCounters = map[string]bool{
	"vtime.switches": true, "vtime.sync_fast": true, "vtime.heap_ops": true,
	"vtime.wakes": true, "vtime.wake_batches": true,
}

// seedDependent workloads generate their inputs from -seed (the result
// file's provenance.seed_note says so).
var seedDependent = map[string]bool{"store_mixed": true, "wire_ops": true}

// metricSpec is one BENCHMARK.json metric; Bound is 0 on per-layer ones.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type run struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Correct  bool    `json:"correct"`
	FailFrac float64 `json:"fail_frac"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Digests map[string]string `json:"digests"`
}

type resultFile struct {
	Provenance struct {
		Seed  int64 `json:"seed"`
		Smoke bool  `json:"smoke"`
	} `json:"provenance"`
	Runs []run `json:"runs"`
}

func main() {
	if len(os.Args) < 2 || os.Args[1] != "compare" {
		fmt.Fprintln(os.Stderr, "usage: benchjson compare [-threshold F] old.json new.json")
		os.Exit(2)
	}
	failed, err := runCompare(os.Stdout, "BENCHMARK.json", os.Args[2:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare parses `[-threshold F] old.json new.json` and reports how
// many checks failed.
func runCompare(w io.Writer, specPath string, args []string) (int, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	threshold := fs.Float64("threshold", 1.5, "fraction by which a gated per-layer timing may worsen (1.5 = +150%)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("usage: benchjson compare [-threshold F] old.json new.json")
	}
	if *threshold <= 0 {
		return 0, fmt.Errorf("-threshold must be positive, got %v", *threshold)
	}
	var spec benchSpec
	var oldF, newF resultFile
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {fs.Arg(0), &oldF}, {fs.Arg(1), &newF}} {
		if err := load(f.path, f.into); err != nil {
			return 0, err
		}
	}
	if len(oldF.Runs) == 0 || len(newF.Runs) == 0 {
		return 0, fmt.Errorf("no runs[] in %s or %s: want files written by `go run ./benchmark -out`", fs.Arg(0), fs.Arg(1))
	}
	if oldF.Provenance.Smoke != newF.Provenance.Smoke {
		return 0, fmt.Errorf("a -smoke run and a full run do different work and cannot be compared")
	}
	return compare(w, spec, oldF, newF, *threshold), nil
}

// compare prints every gated and end-to-end metric of every run the
// files share and returns the number of failed checks.
func compare(w io.Writer, spec benchSpec, oldF, newF resultFile, threshold float64) int {
	type key struct {
		workload string
		traced   bool
	}
	label := func(r run) string { return fmt.Sprintf("%s (traced=%v)", r.Workload, r.Traced) }
	olds := make(map[key]run, len(oldF.Runs))
	for _, r := range oldF.Runs {
		olds[key{r.Workload, r.Traced}] = r
	}
	sameSeed := oldF.Provenance.Seed == newF.Provenance.Seed
	failed, shared := 0, 0
	for _, n := range newF.Runs {
		o, ok := olds[key{n.Workload, n.Traced}]
		if !ok {
			fmt.Fprintf(w, "%s: only in the new file\n", label(n))
			continue
		}
		delete(olds, key{n.Workload, n.Traced})
		shared++
		fmt.Fprintf(w, "%s\n", label(n))
		fail := func(format string, args ...any) {
			failed++
			fmt.Fprintf(w, "  FAIL %s: %s\n", label(n), fmt.Sprintf(format, args...))
		}
		if !n.Correct {
			fail("correct is false")
		}
		if n.FailFrac > o.FailFrac {
			fail("fail_frac rose %g -> %g", o.FailFrac, n.FailFrac)
		}
		names := make([]string, 0, len(o.Digests))
		for name := range o.Digests {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got, ok := n.Digests[name]; ok && got != o.Digests[name] && (sameSeed || !seedDependent[n.Workload]) {
				fail("digests.%s differs: %.12s -> %.12s", name, o.Digests[name], got)
			}
		}
		specs := spec.EndToEnd
		if n.Traced {
			specs = spec.PerLayer
		}
		for _, m := range specs {
			ov, inOld := o.Metrics[m.Name]
			nv, inNew := n.Metrics[m.Name]
			// The per-layer timings the threshold gates; end-to-end
			// metrics are the ones with a bound.
			gated := strings.HasPrefix(m.Name, "vtime.ns_per_switch_") || strings.HasPrefix(m.Name, "mpi.us_per_allreduce_")
			switch {
			case inOld != inNew:
				fmt.Fprintf(w, "  %-28s in one file only\n", m.Name)
			case exactCounters[m.Name]:
				if ov.Value != nv.Value {
					fail("%s differs: %.0f -> %.0f (an exact counter: the simulated schedule changed)", m.Name, ov.Value, nv.Value)
				}
			case !gated && m.Bound == 0, ov.Value == 0 && nv.Value == 0:
			case ov.Value == 0 || nv.Value == 0:
				fmt.Fprintf(w, "  %-28s %12.6g -> %12.6g  not measured on one side\n", m.Name, ov.Value, nv.Value)
			default:
				worse := nv.Value/ov.Value - 1
				if m.Better == "higher" {
					worse = ov.Value/nv.Value - 1
				}
				line := fmt.Sprintf("  %-28s %12.6g -> %12.6g  %+6.1f%% worse", m.Name, ov.Value, nv.Value, 100*worse)
				if m.Bound > 0 {
					if line += fmt.Sprintf("  (bound %.0f%%)", 100*m.Bound); worse > m.Bound {
						line += "  past its bound: advisory"
					}
				} else if worse > threshold {
					fail("%s worse by %+.0f%%, past the +%.0f%% threshold", m.Name, 100*worse, 100*threshold)
				}
				fmt.Fprintln(w, line)
			}
		}
	}
	for _, o := range oldF.Runs {
		if _, unmatched := olds[key{o.Workload, o.Traced}]; unmatched {
			fmt.Fprintf(w, "%s: only in the old file\n", label(o))
		}
	}
	fmt.Fprintf(w, "%d runs compared, %d checks failed\n", shared, failed)
	return failed
}
