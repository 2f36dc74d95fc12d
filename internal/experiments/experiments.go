// Package experiments regenerates every table and figure of the
// paper's evaluation:
//
//	Fig1        — container solutions on Lenox (hybrid sweep)
//	Fig2        — portability on CTE-POWER (2–16 nodes)
//	Fig3        — scalability on MareNostrum4 (4–256 nodes, FSI)
//	Solutions   — §B.1 deployment overhead and image sizes (table)
//	Portability — §B.2 build-technique × architecture matrix
//
// Every experiment takes an Options value whose zero value reproduces
// the paper-scale configuration; tests shrink the sweep to keep
// runtimes reasonable while asserting the same curve shapes.
//
// The three figures share one shape — a few runtime configurations
// swept over one axis, one elapsed-time curve each — and one type,
// Grid: Fig1 and Fig2 are Grid values, Fig3 is one plus its own
// self-normalised speedup rendering, and internal/scenario compiles
// JSON specs into the same type, so cell labels, the result reshaping
// loop and the table/CSV/chart layout exist once (grid.go).
//
// Every simulating study — the grids and Portability alike — is
// "enumerate cell specs, Sweep.Run them, shape a table". Run is the
// one route from a spec to a result: it looks cells up in the store
// (when there is one), restores hits, replays recorded failures,
// simulates the cells this invocation owns on a bounded worker pool
// (Options.Parallelism), commits them, and reassembles everything in
// input order, so parallel output is byte-identical to the serial
// path. RunOne, the lease workers' per-cell entry, is Run over a
// one-spec slice.
package experiments

import (
	"repro/internal/alya"
	"repro/internal/resultdb"
)

// Options tunes an experiment's sweep without changing its structure.
type Options struct {
	// NodePoints overrides the swept node counts (Fig2, Fig3,
	// Solutions). Nil means the paper's points.
	NodePoints []int
	// Case overrides the Alya case. Zero-name means the paper's case.
	Case alya.Case
	// Mode selects the execution mode (default ModeModel).
	Mode alya.Mode
	// Parallelism bounds the number of concurrently executing cells
	// (0 or negative means runtime.NumCPU()). Results do not depend
	// on it — cells are independent simulations and the engine keeps
	// deterministic order.
	Parallelism int
	// Store, when non-nil, caches cell results persistently: the sweep
	// consults it before simulating and commits after. Results do not
	// depend on it either — restored cells land in the same
	// input-order slots a cold run fills. Any resultdb.Store works: a
	// local directory, a network registry client, or a tiered
	// combination.
	Store resultdb.Store
	// Shard restricts the sweep to a deterministic 1-of-N slice of the
	// enumerated cells, so N processes or machines populate one shared
	// Store without coordination. Requires Store; cells outside the
	// slice that are not already cached surface as *MissingCellsError
	// after the owned cells commit.
	Shard resultdb.Shard
	// FromStore forbids simulating: every simulation cell must come
	// from Store (the CLI's merge verb). Missing cells surface as
	// *MissingCellsError listing their keys. Studies with no
	// simulation cells (Solutions, IOStudy — pure deployment/storage
	// arithmetic) compute directly and are unaffected by FromStore,
	// Shard, and Store.
	FromStore bool
	// Stats, when non-nil, receives the sweep's hit/computed counters
	// and the simulated cells' kernel counters; useful to assert a warm
	// run simulated nothing or to report cache effectiveness. Counters
	// only accumulate, so a caller reporting per phase passes each
	// phase a fresh value (the CLI: one per study).
	Stats *SweepStats
	// TraceDir, when non-empty, makes the sweep log every simulated
	// cell's execution (kernel scheduling, point-to-point messages,
	// collective phases — all in virtual time) and write one Chrome
	// Trace Event JSON file and one time-attribution profile per cell,
	// named by the cell's store key. Tracing is passive: results and
	// figures are byte-identical with or without it, and the artifacts
	// themselves are deterministic (the same cell produces the same
	// bytes on every run). Restored cells write nothing — only
	// simulations have a schedule to record.
	TraceDir string
	// Progress, when non-nil, receives one event per produced cell —
	// restored or simulated — as the sweep runs, counted per Run call
	// (so every RunOne cell reports 1/1). Called from concurrent
	// workers; the callback must be safe for that (telemetry.Progress
	// is). Completion order is nondeterministic, which is why progress
	// is an event stream and never part of result output.
	Progress func(ProgressEvent)
}

// ProgressEvent reports one produced cell during a sweep.
type ProgressEvent struct {
	// Done counts cells produced so far (this one included); Total is
	// the sweep's cell count.
	Done, Total int
	// Label names the cell just produced.
	Label string
	// Cached reports a store restore rather than a simulation.
	Cached bool
}

func (o Options) caseOr(def alya.Case) alya.Case {
	if o.Case.Name == "" {
		return def
	}
	return o.Case
}

func (o Options) nodesOr(def []int) []int {
	if len(o.NodePoints) == 0 {
		return def
	}
	return o.NodePoints
}
