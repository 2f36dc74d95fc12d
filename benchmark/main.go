// Command benchmark is the repo's end-to-end benchmark: six workloads
// (see spec.go and README.md) that regenerate the paper's figures
// cold, warm from the store, over the wire and across a coordinated
// fleet, check that the simulated output never changes, and report
// host time and memory end to end and layer by layer.
//
//	go run ./benchmark -workload sim_cold -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload all -seed 1 -trace 1 -out results.json
//
// One workload runs in this process; "all" runs each in a child
// process, so peak memory is per workload. -trace 0 measures the
// end-to-end metrics with tracing off; -trace 1 is a separate traced
// run that yields the per-layer metrics (with -workload all, both runs
// are made). The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Load is sized for a 2-core machine: GOMAXPROCS is pinned to -procs
// (default min(2, nproc)), which also bounds sweep and fleet workers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one measured value. Samples is how many timings the value
// summarises (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Passes    int               `json:"passes"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Metrics   map[string]metric `json:"metrics"`
	// Digests are sha256 of each rendered figure and of the canonical
	// SavedResults: informational, so two commits can be compared
	// exactly without pinning a golden.
	Digests map[string]string `json:"digests"`
}

// run is one workload run's inputs and what it measured.
type run struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	procs   int
	smoke   bool
	// dir is this run's scratch directory, inside the working
	// directory and removed when the run ends.
	dir string
	// tr is nil on the untraced run.
	tr *tracer
	// rng drives every generated input; the program under test only
	// ever sees what it generated.
	rng *rand.Rand

	setup []time.Duration
	// walls are per-pass wall times; lat the per-unit-of-work
	// latencies in ms; cells the units done in those passes.
	walls []time.Duration
	lat   []float64
	cells int64

	attempted, failed int64
	// wrong collects output mismatches; any makes the run incorrect.
	wrong   []string
	layer   map[string]metric
	digests map[string]string
}

func newRun(spec workloadSpec, seed int64, secs float64, procs int, smoke bool, dir string, traced bool) *run {
	r := &run{
		spec: spec, seed: seed, seconds: secs, procs: procs, smoke: smoke, dir: dir,
		rng:   rand.New(rand.NewSource(seed)),
		layer: make(map[string]metric), digests: make(map[string]string),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64, samples int) {
	r.layer[name] = metric{Value: v, Samples: samples}
}

// setDist records a timing distribution as <prefix>_p50 and, when tail
// is positive, <prefix>_p<tail>.
func (r *run) setDist(prefix string, v []float64, tail int) {
	r.set(prefix+"_p50", median(v), len(v))
	if tail > 0 {
		r.set(fmt.Sprintf("%s_p%d", prefix, tail), percentile(v, float64(tail)), len(v))
	}
}

func (r *run) mismatch(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// scratch returns a fresh directory under the run's scratch space.
func (r *run) scratch(name string) (string, error) {
	return os.MkdirTemp(r.dir, name+"-")
}

// workload is the behaviour behind a workloadSpec.
type workload interface {
	// setup prepares everything before the timed section; teardown
	// releases it. setupReps says how often setup is repeated for the
	// setup_s median (1 where set-up itself simulates for seconds).
	setup(r *run) error
	teardown()
	setupReps() int
	// pass is one untraced pass of the timed section.
	pass(r *run, i int) error
	// traced is the traced pass plus the layer probes; it follows one
	// untraced reference pass in the same process.
	traced(r *run) error
}

// execute runs one workload in this process.
func execute(r *run) (*result, error) {
	w := r.spec.impl()
	reps := w.setupReps()
	if r.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		d, err := timed(func() error { return w.setup(r) })
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setup = append(r.setup, d)
	}
	defer w.teardown()

	// The traced run makes one untraced reference pass first: the
	// traced pass must reproduce its bytes, and the ratio of their wall
	// times is the tracing overhead.
	tr := r.tr
	r.tr = nil
	passes := 1
	if tr == nil && !r.smoke {
		passes = max(1, int(math.Round(float64(r.spec.passes)*r.seconds/runSeconds)))
	}
	for i := 0; i < passes; i++ {
		if err := w.pass(r, i); err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
	}
	if r.tr = tr; tr != nil {
		if err := w.traced(r); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	return r.result()
}

// result folds the run into the metrics of its mode.
func (r *run) result() (*result, error) {
	res := &result{
		Workload: r.spec.name, Traced: r.tr != nil, Passes: len(r.walls),
		Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric), Digests: r.digests,
	}
	for _, w := range r.wrong {
		fmt.Fprintf(os.Stderr, "benchmark: %s: wrong output: %s\n", r.spec.name, w)
	}
	if r.attempted < 1 {
		return nil, errors.New("workload attempted nothing")
	}
	res.FailFrac = float64(r.failed) / float64(r.attempted)
	if r.tr != nil {
		r.set("fail_frac", res.FailFrac, 0)
		ok := 0.0
		if res.Correct {
			ok = 1
		}
		r.set("output_ok", ok, 0)
		for _, m := range perLayer {
			got := r.layer[m.name] // 0 where the workload bypasses the layer
			got.Unit = m.unit
			res.Metrics[m.name] = got
		}
		for name := range r.layer {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("measured %q, which BENCHMARK.json does not list", name)
			}
		}
		return res, nil
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	walls := make([]float64, len(r.walls))
	for i, d := range r.walls {
		walls[i] = seconds(d)
	}
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = seconds(d)
	}
	values := map[string]metric{
		"wall_s":      {Value: median(walls), Samples: len(walls)},
		"cells_per_s": {Value: float64(r.cells) / sum(walls)},
		"lat_ms_p50":  {Value: typical(r.lat), Samples: len(r.lat)},
		"lat_ms_tail": {Value: percentile(r.lat, r.spec.tailPct), Samples: len(r.lat)},
		"rss_peak_mb": {Value: rss},
		"setup_s":     {Value: median(setup), Samples: len(setup)},
	}
	for _, m := range endToEnd {
		v := values[m.name]
		v.Unit = m.unit
		res.Metrics[m.name] = v
	}
	return res, nil
}

// lastLine is the driver's contract: exactly these keys, every metric
// with its value and unit.
func lastLine(res *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv)}
	for name, m := range res.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// printTable prints every metric by name with unit, sample count and,
// for end-to-end metrics, the regression bound.
func printTable(res *result) {
	mode, specs := "untraced, end to end", endToEnd
	if res.Traced {
		mode, specs = "traced, per layer", perLayer
	}
	fmt.Printf("%s (%s): %d passes, %d attempted, %d failed, correct=%v\n",
		res.Workload, mode, res.Passes, res.Attempted, res.Failed, res.Correct)
	for _, s := range specs {
		m := res.Metrics[s.name]
		line := fmt.Sprintf("  %-34s %16.6g %-6s", s.name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		if s.bound > 0 {
			line += fmt.Sprintf(" bound=%.0f%%", 100*s.bound)
		}
		fmt.Println(line)
	}
}

// provenance is what makes two result files comparable.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	CalibMS    float64 `json:"host_calib_ms"`
	// SeedNote records which inputs the seed reaches.
	SeedNote string `json:"seed_note"`
}

const seedNote = "seed drives store_mixed's synthetic keys and op interleaving and wire_ops' synthetic cells and lease-cell order; sim_* and fleet_cold run the paper's fixed sweeps and are seed-independent"

// commit finds the source revision for a result file: the build stamp
// when present, else git when the working directory is a repository
// root, else "unknown" (the driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// resultFile is what -out writes.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
}

func writeResults(path string, prov provenance, runs []*result) error {
	data, err := json.MarshalIndent(resultFile{prov, runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in its own child process, untraced and —
// with trace — traced, and gathers the children's result files.
func runAll(self string, prov provenance, trace bool, scratch string) ([]*result, error) {
	var runs []*result
	modes := []string{"0"}
	if trace {
		modes = append(modes, "1")
	}
	for _, w := range workloads {
		for _, traced := range modes {
			out := filepath.Join(scratch, fmt.Sprintf("%s-%s.json", w.name, traced))
			args := []string{
				"-workload", w.name, "-out", out, "-trace", traced,
				"-seed", fmt.Sprint(prov.Seed), "-seconds", fmt.Sprint(prov.Seconds),
				"-procs", fmt.Sprint(prov.GOMAXPROCS),
			}
			if prov.Smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (trace %s): %w", w.name, traced, err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				return nil, err
			}
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", out, err)
			}
			runs = append(runs, rf.Runs...)
			printTable(rf.Runs[0])
		}
	}
	return runs, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "all", "workload to run, or all: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		secs     = flag.Float64("seconds", runSeconds, "how long the untraced run measures; scales each workload's fixed pass count")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "write the full result set (provenance, metrics, digests) to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1 on one workload: write the spans as Chrome trace JSON")
		procs    = flag.Int("procs", min(2, runtime.NumCPU()), "GOMAXPROCS and the bound on sweep/fleet workers; at most nproc")
		smoke    = flag.Bool("smoke", false, "test-sized workloads (seconds of work in total)")
		spec     = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		data, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *procs < 1 || *procs > runtime.NumCPU() {
		return fmt.Errorf("-procs %d: want 1..%d (nproc)", *procs, runtime.NumCPU())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds %v: want a positive duration", *secs)
	}
	runtime.GOMAXPROCS(*procs)

	// Scratch space lives in the working directory: the benchmark
	// reads and writes nothing outside its checkout.
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	prov := provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: *procs, NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *secs, Smoke: *smoke, SeedNote: seedNote,
	}
	if *out != "" {
		prov.Commit = commit()
	}
	if *name == "all" {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		prov.CalibMS = hostCalibMS(*smoke)
		runs, err := runAll(self, prov, *trace == 1, scratch)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeResults(*out, prov, runs); err != nil {
				return err
			}
		}
		for _, res := range runs {
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s: correct=%v failed=%d", res.Workload, res.Correct, res.Failed)
			}
		}
		return nil
	}

	ws, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s or all)", *name, workloadNames())
	}
	r := newRun(ws, *seed, *secs, *procs, *smoke, scratch, *trace == 1)
	res, err := execute(r)
	if err != nil {
		return fmt.Errorf("%s: %w", ws.name, err)
	}
	if r.tr != nil {
		prov.CalibMS = res.Metrics["host.calib_ms"].Value
		if *traceOut != "" {
			if err := writeChrome(*traceOut, ws.name, r.tr.snapshot()); err != nil {
				return err
			}
		}
	} else if *out != "" {
		prov.CalibMS = hostCalibMS(*smoke)
	}
	if *out != "" {
		if err := writeResults(*out, prov, []*result{res}); err != nil {
			return err
		}
	}
	printTable(res)
	line, err := lastLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
