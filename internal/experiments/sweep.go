package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alya"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/resultdb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// CellSpec is one unit of work in a sweep: where a measurement runs,
// how its image is built, and the cell configuration. The engine
// builds (and memoizes) the image, so specs stay cheap to enumerate.
type CellSpec struct {
	// Label names the cell in error messages ("fig1 Docker 8x14").
	Label string
	// Cluster is the target machine.
	Cluster *cluster.Cluster
	// Runtime executes the cell; Kind is the image-build technique
	// (ignored for bare metal).
	Runtime container.Runtime
	Kind    container.BuildKind
	// ImageFrom, when non-nil, builds the image for that cluster
	// instead of Cluster — the portability study's cross-cluster runs.
	ImageFrom *cluster.Cluster
	// Case and the hybrid configuration mirror core.Cell.
	Case                  alya.Case
	Nodes, Ranks, Threads int
	Mode                  alya.Mode
	Allreduce             mpi.AllreduceAlgo
}

// id is the spec's content identity — everything that can change its
// simulated output, and nothing presentation-only (the Label).
func (sp CellSpec) id() core.CellID {
	return core.CellID{
		Cluster:   sp.Cluster,
		Runtime:   sp.Runtime,
		Kind:      sp.Kind,
		ImageFrom: sp.ImageFrom,
		Case:      sp.Case,
		Nodes:     sp.Nodes,
		Ranks:     sp.Ranks,
		Threads:   sp.Threads,
		Placement: sched.PlaceBlock,
		Mode:      sp.Mode,
		Allreduce: sp.Allreduce,
	}
}

// Key returns the spec's content address in the result store.
func (sp CellSpec) Key() (string, error) { return sp.id().Fingerprint() }

// DeployGroup fingerprints the cell's deployment: runtime, image-source
// cluster, and build technique — the same triple the engine memoizes
// image builds under. A coordinator that batches cells by group keeps
// each worker's builds warm instead of scattering one image's cells
// across the fleet.
func (sp CellSpec) DeployGroup() string {
	src := sp.Cluster
	if sp.ImageFrom != nil {
		src = sp.ImageFrom
	}
	name := ""
	if src != nil {
		name = src.Name
	}
	rt := "baremetal"
	if sp.Runtime != nil {
		rt = sp.Runtime.Name()
	}
	return fmt.Sprintf("%s|%s|%d", rt, name, sp.Kind)
}

// Sweep executes study cells on a bounded worker pool. Each cell is an
// independent virtual-time simulation, so cells run concurrently while
// results keep deterministic input order — parallel sweeps are
// byte-identical to serial ones. Image builds are memoized per
// (runtime, cluster, technique), so a sweep builds each image once
// instead of once per cell.
//
// With a result store attached (Options.Store), the engine consults it
// before simulating and commits after: a hit restores the stored
// outcome into its input-order slot, so cached sweeps stay
// byte-identical to cold ones while executing zero simulations. A
// shard restriction (Options.Shard) makes the engine compute only its
// deterministic slice of the enumerated cells, and Options.FromStore
// forbids computing at all — both report cells they could not produce
// through *MissingCellsError.
type Sweep struct {
	workers   int
	store     resultdb.Store
	shard     resultdb.Shard
	fromStore bool
	stats     *SweepStats

	// Telemetry (see Options.TraceDir / Options.Progress). Both are
	// passive: results are identical with or without them.
	traceDir string
	progress func(ProgressEvent)

	mu     sync.Mutex
	images map[imageKey]*imageEntry
}

// SweepStats counts how a sweep's cells were produced and aggregates
// the vtime kernel's scheduling counters over the simulated ones. One
// value can be shared across concurrent sweeps; the CLI gives each
// study its own, so its -v lines need no snapshot arithmetic.
type SweepStats struct {
	// Hits counts cells restored from the result store.
	Hits atomic.Int64
	// Computed counts cells actually simulated.
	Computed atomic.Int64
	// NegHits counts cells whose recorded failure was replayed from
	// the store instead of re-simulating a known-bad configuration.
	NegHits atomic.Int64
	// Misses counts store lookups that found nothing — the cells a
	// populate sweep went on to simulate (or leave to other shards).
	Misses atomic.Int64
	// Puts counts results committed to the store; PutErrs failure
	// records committed. These are the sweep's own view — the CLI's
	// -v store line prints Store.Stats() instead, which can differ
	// (a tiered store also counts read-through populates).
	Puts, PutErrs atomic.Int64

	// kernel sums the vtime scheduling counters of the simulated cells
	// (AddKernel / Kernel); once per cell, so a mutex is plenty.
	kernelMu sync.Mutex
	kernel   vtime.Counters

	// admission packs the tightest worker admission any compute phase
	// observed (requested<<32 | admitted), so an oversized grid can
	// report that the rank budget — not the cell count or the CPU
	// count — bounded its concurrency. Zero until a compute phase runs.
	admission atomic.Uint64
}

// NoteAdmission records one compute phase's worker admission: how many
// workers the configuration requested and how many RankBudget let in.
// The tightest observation (smallest admitted) wins, so a study that
// runs several sweeps reports the one that actually throttled.
func (st *SweepStats) NoteAdmission(requested, admitted int) {
	packed := uint64(uint32(requested))<<32 | uint64(uint32(admitted))
	for {
		cur := st.admission.Load()
		if cur != 0 && uint32(cur) <= uint32(packed) {
			return
		}
		if st.admission.CompareAndSwap(cur, packed) {
			return
		}
	}
}

// Admission returns the tightest worker admission recorded; (0, 0)
// means no compute phase has run.
func (st *SweepStats) Admission() (requested, admitted int) {
	p := st.admission.Load()
	return int(p >> 32), int(uint32(p))
}

// AddKernel folds one execution's kernel counters into the totals.
func (st *SweepStats) AddKernel(c vtime.Counters) {
	st.kernelMu.Lock()
	st.kernel = st.kernel.Add(c)
	st.kernelMu.Unlock()
}

// Kernel returns the aggregated kernel counters as one value.
func (st *SweepStats) Kernel() vtime.Counters {
	st.kernelMu.Lock()
	defer st.kernelMu.Unlock()
	return st.kernel
}

// MissingCell names one cell a sweep could not produce.
type MissingCell struct {
	// Label is the cell's display name; Key its store address.
	Label, Key string
}

// MissingCellsError reports the cells a sharded or store-only sweep
// did not produce: cells owned by other shards that have not reached
// the store yet, or — under FromStore — cells never computed.
type MissingCellsError struct {
	Cells []MissingCell
}

// Error lists every missing cell with its key, so an operator can see
// exactly which shards still owe results.
func (e *MissingCellsError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiments: %d cells not in the result store:", len(e.Cells))
	for _, c := range e.Cells {
		fmt.Fprintf(&sb, "\n  %s (%s)", c.Label, c.Key)
	}
	return sb.String()
}

// imageKey identifies one memoized build. Runtime implementations are
// comparable value types, so the interface value itself (which carries
// the version) is part of the key.
type imageKey struct {
	rt      container.Runtime
	cluster string
	kind    container.BuildKind
}

// imageEntry coalesces concurrent builds of the same image.
type imageEntry struct {
	once sync.Once
	img  *container.Image
	err  error
}

// NewSweep creates an engine honouring opt.Parallelism (default:
// runtime.NumCPU()) and the store/shard configuration.
func NewSweep(opt Options) *Sweep {
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	stats := opt.Stats
	if stats == nil {
		stats = &SweepStats{}
	}
	return &Sweep{
		workers:   workers,
		store:     opt.Store,
		shard:     opt.Shard,
		fromStore: opt.FromStore,
		stats:     stats,
		traceDir:  opt.TraceDir,
		progress:  opt.Progress,
		images:    make(map[imageKey]*imageEntry),
	}
}

// Stats returns the sweep's cache counters.
func (s *Sweep) Stats() *SweepStats { return s.stats }

// ImageFor returns the memoized image for (runtime, cluster,
// technique), building it on first use. Concurrent callers share one
// build. Bare metal returns nil, as core.BuildImageFor does.
func (s *Sweep) ImageFor(rt container.Runtime, cl *cluster.Cluster, kind container.BuildKind) (*container.Image, error) {
	key := imageKey{rt: rt, cluster: cl.Name, kind: kind}
	s.mu.Lock()
	e, ok := s.images[key]
	if !ok {
		e = &imageEntry{}
		s.images[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.img, e.err = core.BuildImageFor(rt, cl, kind) })
	return e.img, e.err
}

// Each runs fn(i) for every i in [0, n) on the worker pool and blocks
// until all calls return. Work is claimed in index order and stops
// being claimed after the first failure (cells already running finish,
// so expensive sweeps fail fast); when several calls fail, the
// lowest-index error is returned. Claim order makes that error
// deterministic: every index below a failing one was claimed before
// the failure could stop the pool, so the serial and parallel paths
// report the same cell. fn writes its own output slot — slots are
// disjoint, so no locking is needed.
func (s *Sweep) Each(n int, fn func(i int) error) error {
	return s.each(n, s.workers, fn)
}

func (s *Sweep) each(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// Check the flag before claiming: a claimed index
					// must always execute, or an error at a higher
					// index could mask one below it.
					if failed.Load() {
						return
					}
					i := int(next.Add(1))
					if i >= n {
						return
					}
					if errs[i] = fn(i); errs[i] != nil {
						failed.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RankBudget bounds the total simulated ranks in flight: every rank
// is a goroutine (stack plus solver state), so a pool of NumCPU
// paper-scale cells — fig3's largest simulates 12,288 ranks — would
// multiply peak memory by the core count. Cells above the budget
// still run, one at a time. The admission clamp is observable:
// SweepStats.Admission reports workers admitted vs requested, and the
// CLI's -v surfaces it so an oversized scenario grid explains its own
// throughput.
const RankBudget = 32768

// AdmittedWorkers bounds a pool of requested workers so concurrent
// cells stay within RankBudget simulated ranks, weighing every cell as
// the largest of specs; one worker is always admitted. It is the
// admission rule of every pool that simulates cells: Sweep.Run's and a
// lease worker's, which clamps once over its whole enumeration because
// its engine only ever sees one leased cell at a time.
func AdmittedWorkers(specs []CellSpec, requested int) int {
	maxRanks := 1
	for _, sp := range specs {
		if sp.Ranks > maxRanks {
			maxRanks = sp.Ranks
		}
	}
	if fit := RankBudget / maxRanks; fit < requested {
		requested = fit
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// workersFor admits the compute pool for specs and records the
// admission in the stats.
func (s *Sweep) workersFor(specs []CellSpec) int {
	workers := AdmittedWorkers(specs, s.workers)
	if len(specs) > 0 {
		s.stats.NoteAdmission(s.workers, workers)
	}
	return workers
}

// Run executes every spec and returns the results in spec order. It is
// the engine's only route from a spec to a result: a failing cell's
// error is wrapped with its Label, and each produced cell emits one
// progress event.
//
// With a store attached, cached cells are restored instead of
// simulated and fresh results are committed; restores land in the
// same input-order slots, so a warm sweep's results are deep-equal to
// a cold sweep's. Under an active shard, only cells the shard owns
// (plus cache hits) are produced; under FromStore nothing is
// simulated. In both cases, any cell left unproduced makes Run return
// a *MissingCellsError after the owned cells have been computed and
// committed — a sharded populate run does all its work before
// reporting what it left to the other shards. Without a store every
// cell misses, every cell is owned, and nothing commits.
func (s *Sweep) Run(specs []CellSpec) ([]core.Result, error) {
	if s.store == nil && (s.fromStore || s.shard.Active()) {
		return nil, fmt.Errorf("experiments: sharded or store-only sweeps need a result store")
	}
	if err := s.shard.Validate(); err != nil {
		return nil, err
	}
	results := make([]core.Result, len(specs))
	var done atomic.Int64
	// keys are the cells' store addresses, left empty without a store;
	// hit marks the cells the store answered.
	keys := make([]string, len(specs))
	hit := make([]bool, len(specs))
	if s.store != nil {
		// Fingerprinting is a canonical encoding plus a sha256 per cell,
		// the bulk of a warm replay's own work: it fans out too.
		err := s.each(len(specs), s.workers, func(i int) (err error) {
			if keys[i], err = specs[i].Key(); err != nil {
				return &CellError{Label: specs[i].Label, Err: err}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Pin the whole working set for the duration of the run, so an
		// in-process GC never evicts a cell between its lookup and its
		// use. Pins don't cross the wire: a remote registry's server-side
		// GC relies on access recency instead (see resultdb.Pinner).
		if p, ok := s.store.(resultdb.Pinner); ok {
			defer p.Pin(keys)()
		}

		// Announce the working set before the lookup fan-out: a network
		// store answers with one manifest fetch and resolves lookups of
		// keys the registry lacks locally — on a sharded populate sweep
		// that replaces a round trip per other-shard cell with one per
		// sweep. StoreStats.PrefetchSkips counts the avoided trips.
		if pf, ok := s.store.(resultdb.Prefetcher); ok && len(keys) > 1 {
			pf.Prefetch(keys)
		}

		// Consult the store first; hits restore into their input-order
		// slots, and a recorded failure replays without re-simulating the
		// known-bad cell — distinctly from missing cells, which surface as
		// *MissingCellsError. A lookup error is neither: the store itself
		// (a registry that is down, a schema conflict) failed, and the
		// sweep fails with it rather than recomputing the world. Lookups
		// fan out over the worker pool — against a registry each one is a
		// network round trip, and a warm merge is nothing but this loop —
		// while the error reported stays the lowest-index one, exactly as
		// in a serial consultation. What remains is split into cells this
		// invocation computes and cells it must leave to other shards (or,
		// under FromStore, to nobody).
		err = s.each(len(specs), s.workers, func(i int) error {
			ent, ok, err := s.store.Lookup(keys[i])
			if err != nil {
				return &CellError{Label: specs[i].Label, Err: err}
			}
			if !ok {
				s.stats.Misses.Add(1)
				return nil
			}
			if ent.Err != "" {
				s.stats.NegHits.Add(1)
				return &CellError{Label: specs[i].Label, Err: &resultdb.RecordedError{Key: keys[i], Msg: ent.Err}}
			}
			cell, err := s.cellFor(specs[i])
			if err != nil {
				return &CellError{Label: specs[i].Label, Err: err}
			}
			results[i] = ent.Result.Restore(cell)
			s.stats.Hits.Add(1)
			hit[i] = true
			s.note(&done, len(specs), specs[i].Label, true)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var torun, missing []int
	for i := range specs {
		switch {
		case hit[i]:
		case s.fromStore, !s.shard.Owns(keys[i]):
			missing = append(missing, i)
		default:
			torun = append(torun, i)
		}
	}

	sub := make([]CellSpec, len(torun))
	for j, i := range torun {
		sub[j] = specs[i]
	}
	err := s.each(len(torun), s.workersFor(sub), func(j int) error {
		i := torun[j]
		res, err := s.runSpec(specs[i])
		if err != nil {
			// Cell outcomes are pure functions of the spec, so the
			// failure is deterministic: record it so repeated sweeps
			// skip the known-bad cell. A store error must not mask the
			// cell failure, which still surfaces either way.
			if s.store != nil && s.store.PutError(keys[i], err.Error()) == nil {
				s.stats.PutErrs.Add(1)
			}
			return &CellError{Label: specs[i].Label, Err: err}
		}
		if s.store != nil {
			if err := s.store.Put(keys[i], res.Saved()); err != nil {
				return &CellError{Label: specs[i].Label, Err: err}
			}
			s.stats.Puts.Add(1)
		}
		results[i] = res
		s.note(&done, len(specs), specs[i].Label, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		e := &MissingCellsError{}
		for _, i := range missing {
			e.Cells = append(e.Cells, MissingCell{Label: specs[i].Label, Key: keys[i]})
		}
		return nil, e
	}
	return results, nil
}

// RunOne produces a single cell: Run over a one-spec slice, so a lease
// worker's cells take exactly the route a figure's cells do.
func (s *Sweep) RunOne(sp CellSpec) (core.Result, error) {
	res, err := s.Run([]CellSpec{sp})
	if err != nil {
		return core.Result{}, err
	}
	return res[0], nil
}

// cellFor assembles the core.Cell a spec describes, building (or
// fetching the memoized) image. It is shared by the compute path and
// the cache-hit restore path, so restored results echo exactly the
// cell a cold run would have.
func (s *Sweep) cellFor(sp CellSpec) (core.Cell, error) {
	src := sp.Cluster
	if sp.ImageFrom != nil {
		src = sp.ImageFrom
	}
	img, err := s.ImageFor(sp.Runtime, src, sp.Kind)
	if err != nil {
		return core.Cell{}, err
	}
	return core.Cell{
		Cluster:   sp.Cluster,
		Runtime:   sp.Runtime,
		Image:     img,
		Case:      sp.Case,
		Nodes:     sp.Nodes,
		Ranks:     sp.Ranks,
		Threads:   sp.Threads,
		Placement: sched.PlaceBlock,
		Mode:      sp.Mode,
		Allreduce: sp.Allreduce,
	}, nil
}

// runSpec executes one cell: memoized image build, then the
// measurement. With tracing enabled, the cell runs with an event log,
// which after the run is folded twice, keyed by the cell's fingerprint:
// into the Chrome trace (<key>.trace.json) and into the cell's
// time-attribution profile (<key>.profile.json, consumed by `hpcstudy
// analyze`); an artifact that cannot be written fails the cell loudly
// rather than silently losing what the operator asked for.
func (s *Sweep) runSpec(sp CellSpec) (core.Result, error) {
	cell, err := s.cellFor(sp)
	if err != nil {
		return core.Result{}, err
	}
	if s.traceDir != "" {
		cell.Log = &vtime.Log{}
	}
	res, err := core.RunCell(cell)
	if err != nil {
		return core.Result{}, err
	}
	s.stats.Computed.Add(1)
	if log := cell.Log; log != nil {
		key, err := sp.Key()
		if err != nil {
			return core.Result{}, err
		}
		trace, err := telemetry.Export(sp.Label, log, res.Exec.MPI.Kernel)
		if err != nil {
			return core.Result{}, err
		}
		if err := telemetry.WriteTrace(s.traceDir, key, trace); err != nil {
			return core.Result{}, err
		}
		// The trace keeps the newest events only; the profile folds them
		// all, and drains the log as it goes.
		prof, err := profile.Build(sp.Label, key, log, res.Exec.MPI.RankEnd)
		if err != nil {
			return core.Result{}, err
		}
		if err := prof.WriteFile(s.traceDir); err != nil {
			return core.Result{}, err
		}
	}
	// Kernel counters and the event log are wall-cost observability,
	// not simulation output: aggregate the counters into the sweep stats
	// and strip both from the result, so warm (restored) and cold
	// results stay deep-equal.
	s.stats.AddKernel(res.Exec.MPI.Kernel)
	res.Exec.MPI.Kernel = vtime.Counters{}
	res.Cell.Log = nil
	return res, nil
}

// note emits one progress event; done must be this sweep call's own
// counter so concurrent studies sharing an engine never interleave
// counts.
func (s *Sweep) note(done *atomic.Int64, total int, label string, cached bool) {
	if s.progress == nil {
		return
	}
	s.progress(ProgressEvent{Done: int(done.Add(1)), Total: total, Label: label, Cached: cached})
}

// CellError annotates a cell failure with the cell's label.
type CellError struct {
	Label string
	Err   error
}

// Error implements error.
func (e *CellError) Error() string { return e.Label + ": " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }
