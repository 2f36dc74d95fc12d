package telemetry

import (
	"fmt"
	"io"

	"repro/internal/resultdb"
	"repro/internal/vtime"
)

// CellsSample is one study's observability sample — the sweep, store,
// and kernel counters of a single study run. The CLI gives each study
// its own SweepStats (kernel counters included), takes the shared
// store's traffic as a delta around it, and folds both into the
// metrics registry through RecordStudy; RenderStudy then prints the
// classic -v lines from the registry, so there is exactly one model
// behind both the human and the scrapeable output.
type CellsSample struct {
	// Cell outcomes from the sweep.
	Simulated        int64
	Replayed         int64
	FailuresReplayed int64
	// Admission-controller window: workers requested vs admitted. A
	// clamp (Admitted != 0 && Admitted < Requested) means the rank
	// budget, not the CPU count, bounded concurrency.
	AdmissionRequested int
	AdmissionAdmitted  int
	// Store is the content store's own traffic delta; nil when no store
	// was attached.
	Store *resultdb.StoreStats
	// Kernel sums the vtime scheduler counters of the simulated cells.
	Kernel vtime.Counters
}

// Metric family names produced by RecordStudy.
const (
	MetricStudyCells     = "study_cells_total"
	MetricStudyAdmission = "study_admission_workers"
	MetricStudyStoreOps  = "study_store_ops_total"
	MetricStudyKernelOps = "study_kernel_ops_total"
)

// RecordStudy folds one study's sample into the registry, labelled by
// study name. Store metrics are only created when a store was attached,
// which is how RenderStudy knows whether to print the store line.
func RecordStudy(reg *Registry, study string, s CellsSample) {
	cell := func(outcome string, v int64) {
		reg.Counter(MetricStudyCells, "Sweep cells by outcome.",
			L("study", study), L("outcome", outcome)).Add(float64(v))
	}
	cell("simulated", s.Simulated)
	cell("replayed", s.Replayed)
	cell("failures_replayed", s.FailuresReplayed)

	adm := func(kind string, v int) {
		reg.Gauge(MetricStudyAdmission, "Admission-controller window: sweep workers requested and admitted.",
			L("study", study), L("kind", kind)).Set(float64(v))
	}
	adm("requested", s.AdmissionRequested)
	adm("admitted", s.AdmissionAdmitted)

	if st := s.Store; st != nil {
		op := func(op string, v int64) {
			reg.Counter(MetricStudyStoreOps, "Content-store operations by kind.",
				L("study", study), L("op", op)).Add(float64(v))
		}
		op("hit", st.Hits)
		op("miss", st.Misses())
		op("prefetch_skip", st.PrefetchSkips)
		op("put", st.Puts)
		op("put_error", st.PutErrors)
		op("neg_hit", st.NegHits)
		op("retry", st.Retries)
	}

	kop := func(op string, v int64) {
		reg.Counter(MetricStudyKernelOps, "vtime scheduler operations by kind.",
			L("study", study), L("op", op)).Add(float64(v))
	}
	kop("switch", s.Kernel.Switches)
	kop("ping_pong", s.Kernel.PingPong)
	kop("sync_fast", s.Kernel.SyncFast)
	kop("heap", s.Kernel.HeapOps)
	kop("wake", s.Kernel.Wakes)
	kop("wake_batch", s.Kernel.WakeBatches)
}

// val reads a registry value as an integer (metrics recorded by
// RecordStudy are integral by construction).
func val(reg *Registry, name string, labels ...Label) int64 {
	v, _ := reg.Value(name, labels...)
	return int64(v)
}

// RenderStudy prints the -v summary for one recorded study —
// byte-identical to the lines the CLI historically assembled from the
// three separate stats structs. rankBudget is quoted in the admission
// line (the line appears only when the window was clamped); the store
// line appears only when RecordStudy saw an attached store.
func RenderStudy(w io.Writer, reg *Registry, study string, rankBudget int) {
	sl := L("study", study)
	cells := func(outcome string) int64 { return val(reg, MetricStudyCells, sl, L("outcome", outcome)) }
	fmt.Fprintf(w, "  %s cells: %d simulated, %d replayed, %d failures replayed\n",
		study, cells("simulated"), cells("replayed"), cells("failures_replayed"))

	req := val(reg, MetricStudyAdmission, sl, L("kind", "requested"))
	adm := val(reg, MetricStudyAdmission, sl, L("kind", "admitted"))
	if adm != 0 && adm < req {
		fmt.Fprintf(w, "  %s admission: %d of %d workers admitted (rank budget %d simulated ranks)\n",
			study, adm, req, rankBudget)
	}

	if _, hasStore := reg.Value(MetricStudyStoreOps, sl, L("op", "hit")); hasStore {
		op := func(op string) int64 { return val(reg, MetricStudyStoreOps, sl, L("op", op)) }
		fmt.Fprintf(w, "  %s store: %d hits, %d misses (%d answered by prefetch), %d puts, %d failure records, %d negative hits, %d retries\n",
			study, op("hit"), op("miss"), op("prefetch_skip"),
			op("put"), op("put_error"), op("neg_hit"), op("retry"))
	}

	kop := func(op string) int64 { return val(reg, MetricStudyKernelOps, sl, L("op", op)) }
	fmt.Fprintf(w, "  %s kernel: %d switches (%d ping-pong), %d sync fast-path, %d heap ops, %d wakes (%d batched flushes)\n",
		study, kop("switch"), kop("ping_pong"), kop("sync_fast"), kop("heap"), kop("wake"), kop("wake_batch"))
}
