package main

import "encoding/json"

// The tables in this file are the benchmark's contract: workload and
// metric names that later issues cite. BENCHMARK.json at the repo root
// is `go run ./benchmark -print-spec`; the smoke test fails when the
// two disagree. The extra columns (layer, what each metric is
// predicted to move, tail percentile) are rendered by README.md — the
// driver's BENCHMARK.json schema has no room for them.

// runSeconds is how long one untraced run measures (the driver passes
// it back as --seconds).
const runSeconds = 10

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	name string
	why  string
	// tailPct is the percentile lat_ms_tail reports: the highest with
	// about ten samples beyond it at the sizing in README.md. 100 means
	// the maximum — the workload yields fewer than 20 samples per run.
	tailPct float64
	// passes is how many passes an untraced run of runSeconds makes;
	// other -seconds scale it. The count is fixed, not timed, so every
	// run of a workload does the same work and its counters repeat.
	passes int
	// impl builds the workload's behaviour.
	impl func() workload
}

var workloads = []workloadSpec{
	{"sim_cold", "fig1+fig2 quick sweeps with no store: vtime/mpi/alya/core do all the work, so kernel, collective and sweep-pool changes show here", 90, 2, func() workload { return &simSweep{cold: true} }},
	{"sim_scale", "three 3,072-rank fig3 FSI cells run serially: cross-cell parallelism buys nothing, per-rank memory and run-queue depth dominate", 100, 1, func() workload { return &simSweep{} }},
	{"sim_real", "ModeReal CFD/FSI cells on every cluster: real float64 payloads and CG solves, the only place krylov/navier/omp or the payload path show", 90, 3, func() workload { return &simReal{} }},
	{"store_mixed", "warm fig1+fig2 replays beside Put/PutError and GC on one DirStore, zero simulation: read, commit and GC lock interplay shows here", 99, 5, func() workload { return &storeMixed{} }},
	{"wire_ops", "3,000 synthetic cells through claim/lookup/put/get/heartbeat/complete over HTTP, no simulator: the only place wire and lease cost moves a number", 99, 3, func() workload { return &wireOps{} }},
	{"fleet_cold", "coordinator plus two RunWorkers sweep fig2 quick cold, then a FromStore merge: every layer at once, shows batching imbalance and claim-poll idle", 100, 1, func() workload { return &fleetCold{} }},
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	name   string
	unit   string
	better string
	// bound is the regression bound of an end-to-end metric (share of
	// the parent's median); per-layer metrics carry none.
	bound float64
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_tail", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured by the traced run. A metric whose layer the
// workload bypasses reads 0 there; README.md lists which workload
// measures which.
var perLayer = []metricSpec{
	{"fail_frac", "ratio", "lower", 0},
	{"output_ok", "bool", "higher", 0},

	{"vtime.switches", "count", "lower", 0},
	{"vtime.heap_ops", "count", "lower", 0},
	{"vtime.wakes", "count", "lower", 0},
	{"vtime.wake_batches", "count", "lower", 0},
	{"vtime.sync_fast", "count", "higher", 0},
	{"vtime.pingpong_hits", "count", "higher", 0},
	{"vtime.fast_ratio", "ratio", "higher", 0},
	{"vtime.switches_per_s", "1/s", "higher", 0},
	{"vtime.ns_per_switch_2p", "ns", "lower", 0},
	{"vtime.ns_per_switch_640p", "ns", "lower", 0},
	{"vtime.ns_per_switch_3072p", "ns", "lower", 0},
	{"vtime.est_share", "ratio", "lower", 0},

	{"mpi.us_per_allreduce_p8", "us", "lower", 0},
	{"mpi.us_per_allreduce_p640", "us", "lower", 0},
	{"mpi.switches_per_allreduce", "count", "lower", 0},
	{"mpi.us_per_halo_model", "us", "lower", 0},
	{"mpi.us_per_halo_real", "us", "lower", 0},
	{"mpi.msgs_per_step", "count", "lower", 0},
	{"mpi.bytes_per_step", "B", "lower", 0},
	{"mpi.comm_frac_sim", "ratio", "lower", 0},

	{"alya.real_ms_per_step", "ms", "lower", 0},
	{"krylov.cg_iters_per_step", "count", "lower", 0},
	{"omp.threads2_speedup_sim", "ratio", "higher", 0},

	{"core.cell_ms_r80", "ms", "lower", 0},
	{"core.cell_ms_r640", "ms", "lower", 0},
	{"core.cell_ms_r3072", "ms", "lower", 0},
	{"core.bytes_per_rank", "B", "lower", 0},
	{"core.image_build_us", "us", "lower", 0},
	{"core.fingerprint_us", "us", "lower", 0},

	{"experiments.sim_cells", "count", "lower", 0},
	{"experiments.replayed_cells", "count", "higher", 0},
	{"experiments.misses", "count", "lower", 0},
	{"experiments.puts", "count", "lower", 0},
	{"experiments.admitted_workers", "count", "higher", 0},
	{"experiments.pool_util", "ratio", "higher", 0},
	{"experiments.replay_us_per_cell", "us", "lower", 0},
	{"experiments.merge_ms", "ms", "lower", 0},
	{"report.render_us", "us", "lower", 0},
	{"scenario.compile_us", "us", "lower", 0},

	{"resultdb.lookup_us_p50", "us", "lower", 0},
	{"resultdb.lookup_us_p99", "us", "lower", 0},
	{"resultdb.put_us_p50", "us", "lower", 0},
	{"resultdb.put_us_p99", "us", "lower", 0},
	{"resultdb.gc_ms", "ms", "lower", 0},
	{"resultdb.open_ms", "ms", "lower", 0},
	{"resultdb.hit_ratio", "ratio", "higher", 0},
	{"resultdb.bytes_per_record", "B", "lower", 0},

	{"registry.claim_us_p50", "us", "lower", 0},
	{"registry.claim_us_p99", "us", "lower", 0},
	{"registry.lookup_miss_us_p50", "us", "lower", 0},
	{"registry.get_hit_us_p50", "us", "lower", 0},
	{"registry.get_hit_us_p99", "us", "lower", 0},
	{"registry.put_us_p50", "us", "lower", 0},
	{"registry.put_us_p99", "us", "lower", 0},
	{"registry.heartbeat_us_p50", "us", "lower", 0},
	{"registry.complete_us_p50", "us", "lower", 0},
	{"registry.prefetch_ms", "ms", "lower", 0},
	{"registry.req_per_s", "1/s", "higher", 0},
	{"registry.retries", "count", "lower", 0},
	{"registry.leases_lost", "count", "lower", 0},
	{"registry.requests_per_cell", "count", "lower", 0},
	{"registry.queue_claim_ns", "ns", "lower", 0},
	{"registry.queue_complete_ns", "ns", "lower", 0},

	{"fleet.simulate_frac", "ratio", "higher", 0},
	{"fleet.wire_frac", "ratio", "lower", 0},
	{"fleet.backoff_frac", "ratio", "lower", 0},
	{"fleet.idle_frac", "ratio", "lower", 0},
	{"fleet.imbalance", "ratio", "lower", 0},
	{"fleettrace.merge_ms", "ms", "lower", 0},

	{"telemetry.tap_overhead_frac", "ratio", "lower", 0},
	{"telemetry.trace_bytes_per_cell", "B", "lower", 0},
	{"profile.analyze_ms", "ms", "lower", 0},
	{"telemetry.journal_overhead_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkJSON renders the tables in the driver's BENCHMARK.json
// schema. Field order is the schema's; maps would sort the keys.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
