// Command hpcstudy regenerates the paper's evaluation artifacts and
// runs user-authored scenario studies.
//
// Usage:
//
//	hpcstudy [-quick] [-csv] [-v] [-parallel N] [store flags] [merge] <study>
//	hpcstudy run [-list] [flags] <spec.json>
//	hpcstudy validate <spec.json>
//	hpcstudy serve -cache-dir DIR -listen ADDR [-gc-interval DUR -max-bytes N -max-age DUR] [-pprof ADDR]
//	hpcstudy analyze -trace DIR [-o OUTDIR] [-diff "A=B"] [-top N] [-csv]
//	hpcstudy fleetlog [-chrome FILE] [-csv] [-diff DIRB] <journal-dir>
//	hpcstudy gc -cache-dir DIR [-max-bytes N] [-max-age DUR]
//	hpcstudy help [verb]
//
// where <study> is fig1|fig2|fig3|solutions|portability|iostudy|all
// and the store flags are -cache-dir DIR, -cache-url URL (either or
// both) plus -shard k/N.
//
// run compiles a declarative JSON scenario spec (see
// examples/scenarios and the README's "Custom scenarios" section)
// and executes it through the same sweep engine as the built-in
// studies, so every store flag — caching, registry URL, sharding,
// merge — applies unchanged; a spec argument also works wherever a
// study name does ("hpcstudy merge spec.json"). validate checks a
// spec and reports its cell count without simulating, and run -list
// prints every compiled cell with its store key.
//
// Without -quick every experiment runs at paper scale; fig3's 256-node
// point simulates 12,288 MPI ranks and takes several minutes of wall
// time. -quick trims the sweeps to a laptop-friendly subset with the
// same qualitative shapes. -csv emits machine-readable data instead of
// tables. -parallel bounds the number of concurrently simulated cells
// (default: all CPUs); results are identical at every setting.
//
// -cache-dir attaches a persistent result store: cells already in the
// store are replayed instead of simulated, and fresh cells are
// committed, so a rerun is byte-identical to the first run while
// simulating nothing. -cache-url points at a result registry
// (`hpcstudy serve`) instead, so machines with no shared filesystem
// meet in one store; given both flags, the directory becomes a local
// read-through cache in front of the registry. -shard k/N restricts
// one invocation to a deterministic 1-of-N slice of the cells, so N
// processes or machines populate one shared store without
// coordination; the merge verb then assembles the complete figure
// purely from the store, failing with the list of missing cell keys
// if any shard has not finished.
//
// serve exposes a store directory as a result registry over HTTP and
// shuts down gracefully on SIGINT/SIGTERM, committing in-flight PUTs.
// With -gc-interval it also garbage-collects the store periodically
// under the -max-bytes/-max-age policy; the gc verb runs one such
// pass directly.
//
// -v appends per-study observability lines: how cells were produced
// (simulated, replayed, failures replayed), the store traffic (hits,
// misses, puts), and the vtime kernel's scheduling counters
// (switches, Sync fast-path hits, heap operations, wakes), so
// scheduling-path and cache regressions show up in CI logs instead of
// silently inflating wall time.
//
// -trace DIR writes one Chrome Trace Event JSON file per simulated
// cell (named by the cell's store key) recording the execution in
// virtual time — kernel scheduling, point-to-point messages, and
// collective phases — loadable in chrome://tracing or Perfetto.
// Traces are deterministic and purely observational: figure bytes are
// identical with or without them. A traced run also writes one
// attribution profile per cell; the analyze verb turns those into
// per-rank time-attribution tables (compute vs point-to-point,
// collective, and resource waits — summing exactly to each rank's
// virtual time), critical-path reports whose length equals the cell
// makespan, folded stacks for flamegraph tools, and -diff "A=B"
// comparisons attributing the makespan delta between two cells to
// specific phases. -progress streams cells-done/rate/ETA lines to
// stderr as a sweep runs.
//
// -fleetlog DIR makes serve and sweep append wall-clock fleet-trace
// journals (one <proc>.fleetlog.jsonl per process: claims, leases,
// heartbeats, store GETs/PUTs, cell runs, with trace/span IDs
// propagated across the wire). The fleetlog verb merges a directory of
// such journals from N processes, aligns their clocks via the
// request/response edges, and prints a per-worker wall-clock
// attribution table (simulate / wire / backoff / idle, tiling each
// worker's observed span exactly); -chrome FILE additionally writes
// the merged timeline as Chrome Trace Event JSON, and -diff DIRB
// compares two runs' attributions. The registry server exposes
// its own metrics (request counts and latencies, store hits/misses,
// GC evictions) on GET /v1/metrics in Prometheus text format, and
// serve -pprof ADDR opens an opt-in net/http/pprof listener. See the
// README's "Observability" section.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// cliConfig carries every flag behind the verb and study arguments.
type cliConfig struct {
	quick, csv bool
	verbose    bool // -v: per-study cache and kernel counters
	parallel   int
	cacheDir   string
	cacheURL   string // result registry base URL
	shard      string // "k/N", empty = no sharding
	merge      bool   // assemble purely from the store
	list       bool   // run: enumerate cells without running
	scenario   bool   // run verb: the argument must be a spec file
	listen     string // serve: bind address
	gcInterval time.Duration
	maxBytes   int64
	maxAge     time.Duration
	traceDir   string // write per-cell Chrome Trace JSON here
	progress   bool   // report sweep progress to stderr
	pprofAddr  string // serve: opt-in net/http/pprof address
	analyzeOut string // analyze: write the artifact tree here
	diffSpec   string // analyze: "A=B" label substrings to compare; fleetlog: run-B journal dir
	top        int    // analyze: longest path segments to list
	fleetlog   string // serve/sweep: append fleet-trace journals here
	chromeOut  string // fleetlog: write the merged Chrome trace here

	// Coordinated sweeps (serve -sweep hands out leases on /v1/work;
	// the sweep verb pulls them).
	sweepStudy  string        // serve: study/spec to coordinate
	leaseTTL    time.Duration // serve: lease expiry without a heartbeat
	leaseBatch  int           // serve: cells per lease
	coordinator string        // sweep: coordinator registry URL
	workerName  string        // sweep: display name in coordinator logs
}

// verb is one row of the CLI's single verb table: dispatch, arity
// checking, the usage summary and per-verb help all read it.
type verb struct {
	name     string   // the word on the command line; "" is the bare `hpcstudy <study>` form
	label    string   // name plus argument placeholder, as the verb summary shows it
	synopsis string   // one-line usage form; empty = the verb summary stands in
	summary  string   // what the verb does, one line
	flags    []string // the flags per-verb help lists
	nargs    int      // positional arguments required; -1 = at most one
	run      func(w io.Writer, args []string, cfg cliConfig) error
}

// verbs lists every verb in usage-display order. The first row is the
// verb-less study form; its flags are the union the top-level summary
// prints for the study/run/merge family. Filled in init because the
// help row prints the table it sits in.
var verbs []verb

func init() {
	verbs = []verb{
		{name: "", label: "<study>", nargs: 1,
			synopsis: "hpcstudy [flags] <fig1|fig2|fig3|solutions|portability|iostudy|all>",
			summary:  "regenerate a built-in study: fig1|fig2|fig3|solutions|portability|iostudy|all",
			flags:    []string{"quick", "list", "csv", "v", "parallel", "trace", "progress", "cache-dir", "cache-url", "shard"},
			run:      func(w io.Writer, args []string, cfg cliConfig) error { return runStudy(w, args[0], cfg) }},
		{name: "run", label: "run <spec.json>", nargs: 1,
			synopsis: "hpcstudy run [flags] <spec.json>",
			summary:  "compile and run a declarative scenario spec (examples/scenarios)",
			flags:    []string{"list", "csv", "v", "parallel", "trace", "progress", "cache-dir", "cache-url", "shard"},
			run: func(w io.Writer, args []string, cfg cliConfig) error {
				cfg.scenario = true
				return runStudy(w, args[0], cfg)
			}},
		{name: "validate", label: "validate <spec.json>", nargs: 1,
			synopsis: "hpcstudy validate <spec.json>",
			summary:  "check a scenario spec and report its cells without running",
			run:      func(w io.Writer, args []string, _ cliConfig) error { return runValidate(w, args[0]) }},
		{name: "merge", label: "merge <study|spec>", nargs: 1,
			synopsis: "hpcstudy merge [flags] <study|spec.json>",
			summary:  "assemble output purely from the result store",
			flags:    []string{"quick", "csv", "v", "parallel", "progress", "cache-dir", "cache-url"},
			run: func(w io.Writer, args []string, cfg cliConfig) error {
				cfg.merge = true
				return runStudy(w, args[0], cfg)
			}},
		{name: "serve", label: "serve",
			synopsis: "hpcstudy serve -cache-dir DIR [-listen ADDR] [-sweep STUDY -lease-ttl DUR -lease-batch N] [-gc-interval DUR -max-bytes N -max-age DUR] [-pprof ADDR]",
			summary:  "expose a -cache-dir store as a result registry over HTTP",
			flags:    []string{"cache-dir", "listen", "gc-interval", "max-bytes", "max-age", "pprof", "sweep", "lease-ttl", "lease-batch", "quick", "fleetlog"},
			run:      func(w io.Writer, _ []string, cfg cliConfig) error { return serveUntilSignal(w, cfg) }},
		{name: "sweep", label: "sweep <study|spec>", nargs: 1,
			synopsis: "hpcstudy sweep -coordinator URL [-worker NAME] [flags] <fig1|fig2|spec.json>",
			summary:  "run a worker pulling leased cell batches from a coordinator (serve -sweep)",
			flags:    []string{"coordinator", "worker", "quick", "v", "parallel", "cache-dir", "trace", "progress", "fleetlog"},
			run:      func(w io.Writer, args []string, cfg cliConfig) error { return runSweep(w, args[0], cfg) }},
		{name: "analyze", label: "analyze",
			synopsis: "hpcstudy analyze -trace DIR [-o OUTDIR] [-diff \"A=B\"] [-top N] [-csv]",
			summary:  "attribute a traced run's virtual time: per-rank tables, critical path, A-vs-B diff",
			flags:    []string{"trace", "o", "diff", "top", "csv"},
			run:      func(w io.Writer, _ []string, cfg cliConfig) error { return runAnalyze(w, cfg) }},
		{name: "fleetlog", label: "fleetlog", nargs: 1,
			synopsis: "hpcstudy fleetlog [-chrome FILE] [-csv] [-diff DIRB] <journal-dir>",
			summary:  "merge -fleetlog journals into one wall-clock timeline and attribution table",
			flags:    []string{"chrome", "csv", "diff"},
			run:      func(w io.Writer, args []string, cfg cliConfig) error { return runFleetlog(w, args[0], cfg) }},
		{name: "gc", label: "gc",
			synopsis: "hpcstudy gc -cache-dir DIR [-max-bytes N] [-max-age DUR]",
			summary:  "evict store records by total size and/or last access",
			flags:    []string{"cache-dir", "max-bytes", "max-age"},
			run:      func(w io.Writer, _ []string, cfg cliConfig) error { return runGC(w, cfg) }},
		{name: "help", label: "help [verb]", nargs: -1,
			summary: "print this summary, or one verb's flags",
			run: func(w io.Writer, args []string, _ cliConfig) error {
				target := ""
				if len(args) == 1 {
					target = args[0]
				}
				printUsage(w, target)
				return nil
			}},
	}
}

// lookupVerb finds a verb by its command-line word; nil when word
// names none (a study name, a spec path, a typo).
func lookupVerb(word string) *verb {
	for i := 1; i < len(verbs); i++ { // row 0 is the verb-less form
		if verbs[i].name == word {
			return &verbs[i]
		}
	}
	return nil
}

// printVerbFlags prints the named flags in declaration style.
func printVerbFlags(w io.Writer, names []string) {
	for _, n := range names {
		f := flag.CommandLine.Lookup(n)
		if f == nil {
			continue
		}
		fmt.Fprintf(w, "  -%-12s %s\n", f.Name, f.Usage)
	}
}

// printUsage writes the usage text: one verb's synopsis and flags, or
// the full verb summary when word names no verb with a synopsis of
// its own.
func printUsage(w io.Writer, word string) {
	if v := lookupVerb(word); v != nil && v.synopsis != "" {
		fmt.Fprintf(w, "usage: %s\n", v.synopsis)
		if len(v.flags) > 0 {
			fmt.Fprintf(w, "\nflags:\n")
			printVerbFlags(w, v.flags)
		}
		return
	}
	fmt.Fprintf(w, "usage: %s\n", verbs[0].synopsis)
	fmt.Fprintf(w, "\nverbs:\n")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-22s %s\n", v.label, v.summary)
	}
	fmt.Fprintf(w, "\nrun `hpcstudy help <verb>` (or `hpcstudy <verb> -h`) for per-verb flags.\n")
	fmt.Fprintf(w, "\nthe determinism and kernel invariants behind every figure are machine-enforced:\nbuild ./cmd/repolint and run `go vet -vettool=$(pwd)/repolint ./...` (CI gates on\nit) before touching kernel, sweep, or wire/store code.\n")
	fmt.Fprintf(w, "\nstudy/run/merge flags:\n")
	printVerbFlags(w, verbs[0].flags)
}

// cliFlags receives the parsed command line. Registration happens at
// init so per-verb help can introspect flag.CommandLine even when
// main never runs (tests drive printUsage directly); the test binary
// registers its own -test.* flags alongside, which never collide.
var cliFlags cliConfig

func init() {
	flag.BoolVar(&cliFlags.quick, "quick", false, "trimmed sweeps (same shapes, minutes less wall time)")
	flag.BoolVar(&cliFlags.csv, "csv", false, "emit CSV instead of tables")
	flag.BoolVar(&cliFlags.verbose, "v", false, "report per-study cache, store, and vtime kernel counters")
	flag.IntVar(&cliFlags.parallel, "parallel", 0, "max concurrently simulated cells (0 = all CPUs)")
	flag.StringVar(&cliFlags.cacheDir, "cache-dir", "", "persistent result store directory (replay hits, commit misses)")
	flag.StringVar(&cliFlags.cacheURL, "cache-url", "", "result registry URL; with -cache-dir, the directory becomes a local read-through cache")
	flag.StringVar(&cliFlags.shard, "shard", "", "compute only slice k/N of the cells into the store")
	flag.BoolVar(&cliFlags.list, "list", false, "run: print the compiled cells (store key and label) without running")
	flag.StringVar(&cliFlags.listen, "listen", "127.0.0.1:8420", "serve: address to expose the registry on")
	flag.DurationVar(&cliFlags.gcInterval, "gc-interval", 0, "serve: garbage-collect the store every interval (0 = never)")
	flag.Int64Var(&cliFlags.maxBytes, "max-bytes", 0, "gc/serve: evict least-recently-used records past this total size (0 = unbounded)")
	flag.DurationVar(&cliFlags.maxAge, "max-age", 0, "gc/serve: evict records not accessed within this duration (0 = unbounded)")
	flag.StringVar(&cliFlags.traceDir, "trace", "", "write one Chrome Trace Event JSON per simulated cell into this directory")
	flag.BoolVar(&cliFlags.progress, "progress", false, "report sweep progress (cells done, rate, ETA) to stderr")
	flag.StringVar(&cliFlags.pprofAddr, "pprof", "", "serve: expose net/http/pprof on this address (off unless set)")
	flag.StringVar(&cliFlags.sweepStudy, "sweep", "", "serve: coordinate this study (fig1|fig2|spec.json) over the /v1/work lease API")
	flag.DurationVar(&cliFlags.leaseTTL, "lease-ttl", 30*time.Second, "serve: revoke a lease not heartbeated within this duration")
	flag.IntVar(&cliFlags.leaseBatch, "lease-batch", 4, "serve: cells per leased batch")
	flag.StringVar(&cliFlags.coordinator, "coordinator", "", "sweep: coordinator registry URL (hpcstudy serve -sweep)")
	flag.StringVar(&cliFlags.workerName, "worker", "", "sweep: worker name in coordinator logs (default host:pid)")
	flag.StringVar(&cliFlags.analyzeOut, "o", "", "analyze: write summary/CSV/critical-path/folded artifacts into this directory")
	flag.StringVar(&cliFlags.diffSpec, "diff", "", "analyze: compare two cells (\"A=B\", label substrings); fleetlog: a second journal dir to compare against")
	flag.IntVar(&cliFlags.top, "top", 10, "analyze: longest critical-path segments to list (0 = all)")
	flag.StringVar(&cliFlags.fleetlog, "fleetlog", "", "serve/sweep: append wall-clock fleet-trace journals into this directory")
	flag.StringVar(&cliFlags.chromeOut, "chrome", "", "fleetlog: write the merged timeline as Chrome Trace Event JSON to this file (\"-\" = stdout)")
}

// parseCommand splits a command line into its verb and positional
// arguments, parsing the flags into cliFlags on the way. A verb reads
// naturally before its flags (`hpcstudy serve -cache-dir …`) and is
// equally accepted after leading ones (`hpcstudy -cache-dir D gc
// -max-age 1h`), so flags are parsed on both sides of it.
func parseCommand(args []string) (*verb, []string) {
	v := &verbs[0]
	flag.Usage = func() { printUsage(flag.CommandLine.Output(), v.name) }
	for range 2 {
		if len(args) > 0 && v == &verbs[0] {
			if named := lookupVerb(args[0]); named != nil {
				v, args = named, args[1:]
			}
		}
		flag.CommandLine.Parse(args)
		args = flag.Args()
	}
	return v, args
}

func main() {
	v, args := parseCommand(os.Args[1:])
	if len(args) != v.nargs && !(v.nargs < 0 && len(args) <= 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := v.run(os.Stdout, args, cliFlags); err != nil {
		fmt.Fprintf(os.Stderr, "hpcstudy: %v\n", err)
		var ue usageError
		var se unknownStudyError
		if errors.As(err, &ue) || errors.As(err, &se) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError reports CLI misuse (invalid flag value or combination);
// main answers it with the usage text and exit code 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// unknownStudyError reports a study name outside the known set.
type unknownStudyError string

func (e unknownStudyError) Error() string { return fmt.Sprintf("unknown study %q", string(e)) }
