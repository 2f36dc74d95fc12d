// Package mpi is the deterministic virtual-time MPI that Alya's
// simulated runs speak — the operations some cell executes, not a
// general MPI library.
//
// Ranks are coroutines scheduled by the vtime kernel; messages carry
// real []float64 payloads (or, in model mode, only their size), so
// distributed solvers built on this package produce genuine numerical
// results while every operation's duration is charged from the fabric
// cost models. Point-to-point is blocking Send/Recv, the nonblocking
// Isend/Irecv pair with their size-only Model variants, Wait and
// SendRecv, matched with MPI semantics (FIFO per source/tag, eager and
// rendezvous protocols). Each side of a transfer is one Request: the
// handle its owner waits on is also what queues in the destination's
// mailbox until the other side arrives, so a matched message is two
// heap objects. The collectives are Barrier and Allreduce —
// recursive doubling, ring, binomial Reduce+Bcast, or node-hierarchical
// — built on point-to-point with the textbook algorithms, so their
// scaling behaviour emerges from the message costs rather than being
// asserted. A communicator is a contiguous range of world ranks: the
// world itself, or one side of the FSI case's two-code split.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/units"
	"repro/internal/vtime"
)

// Config fixes the simulated machine as the MPI layer sees it: rank
// placement, transport selection per rank pair, and execution knobs.
type Config struct {
	// Ranks is the world size.
	Ranks int
	// NodeOf maps a rank to its node index (0-based, dense).
	NodeOf func(rank int) int
	// Nodes is the number of distinct nodes (for NIC resources).
	Nodes int
	// Path selects the transport for a message from src to dst rank.
	// The container runtime's integration policy lives here: Docker
	// returns the bridge path even intra-node; a self-contained image
	// returns the TCP fallback inter-node.
	Path func(src, dst int) *fabric.Transport
	// ComputeDilation multiplies all Compute durations (cgroup
	// accounting and container page-cache effects). 1.0 = bare metal.
	ComputeDilation float64
	// Allreduce picks the allreduce algorithm (default recursive
	// doubling).
	Allreduce AllreduceAlgo
	// StartupSkew staggers rank start times (container per-rank start
	// cost is paid here by the runtime profiles). StartupSkew(rank)
	// returns the rank's time-zero offset; nil means all start at 0.
	StartupSkew func(rank int) units.Seconds
	// Tap, when non-nil, receives the execution's telemetry. It runs
	// under the deterministic scheduler — fixed callback order, no
	// locking needed — and the execution's outcome does not depend on
	// it.
	Tap Tap
}

// Tap is the one telemetry seam of an execution: the vtime scheduler's
// switch/park/wake/idle events, every completed point-to-point
// message, and a span around every collective.
type Tap interface {
	vtime.Tracer
	// Message reports one delivered point-to-point message: endpoints,
	// tag, payload size, transport name, send time, and arrival time.
	Message(src, dst, tag int, size units.ByteSize, transport string, sent, arrived units.Seconds)
	// PhaseBegin and PhaseEnd report rank entering and leaving the
	// named collective in virtual time. Spans nest — the reduce+bcast
	// allreduce reports its inner Reduce and Bcast inside the allreduce
	// span — and stay properly bracketed per rank.
	PhaseBegin(rank int, name string, start units.Seconds)
	PhaseEnd(rank int, name string, end units.Seconds)
}

// AllreduceAlgo selects the collective algorithm for Allreduce.
type AllreduceAlgo int

// Available allreduce algorithms.
const (
	// AllreduceRecursiveDoubling is latency-optimal for short vectors:
	// ceil(log2 P) rounds exchanging the full vector.
	AllreduceRecursiveDoubling AllreduceAlgo = iota
	// AllreduceRing is bandwidth-optimal for long vectors:
	// reduce-scatter plus allgather, 2(P-1) chunk steps.
	AllreduceRing
	// AllreduceReduceBcast reduces to root over a binomial tree and
	// broadcasts back; the baseline algorithm.
	AllreduceReduceBcast
	// AllreduceHierarchical reduces within each node over shared
	// memory, recursive-doubles among node leaders over the fabric,
	// and broadcasts back within nodes — what production MPIs do at
	// scale.
	AllreduceHierarchical
)

// String names the algorithm.
func (a AllreduceAlgo) String() string {
	switch a {
	case AllreduceRecursiveDoubling:
		return "recursive-doubling"
	case AllreduceRing:
		return "ring"
	case AllreduceReduceBcast:
		return "reduce+bcast"
	case AllreduceHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("allreduce(%d)", int(a))
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("mpi: world size %d", c.Ranks)
	}
	if c.NodeOf == nil {
		return fmt.Errorf("mpi: no rank placement")
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("mpi: node count %d", c.Nodes)
	}
	if c.Path == nil {
		return fmt.Errorf("mpi: no transport policy")
	}
	if c.ComputeDilation <= 0 {
		return fmt.Errorf("mpi: compute dilation %v", c.ComputeDilation)
	}
	return nil
}

// World is one simulated MPI_COMM_WORLD execution.
type World struct {
	cfg   Config
	sched *vtime.Scheduler
	ranks []*Rank
	nics  []*vtime.Resource
	boxes []mailbox
	// groups holds the node grouping of each communicator range a
	// hierarchical collective has run on (see nodeGroups).
	groups []*nodeGroups
}

// Rank is the per-process handle passed to rank bodies.
type Rank struct {
	w    *World
	proc *vtime.Proc
	id   int
	node int

	// waiting marks the rank as parked inside Wait/Block so peers know
	// to wake it when they complete one of its requests.
	waiting bool

	// world caches the all-ranks communicator.
	world *Comm

	// stats
	commTime  units.Seconds
	bytesSent units.ByteSize
	msgsSent  int
}

// Stats summarizes one execution.
type Stats struct {
	// End is the simulated makespan (max rank finish time).
	End units.Seconds `json:"End"`
	// MaxCommTime is the largest per-rank time spent inside MPI calls.
	MaxCommTime units.Seconds `json:"MaxCommTime"`
	// AvgCommTime is the mean per-rank MPI time.
	AvgCommTime units.Seconds `json:"AvgCommTime"`
	// TotalBytes is the sum of sent payload bytes.
	TotalBytes units.ByteSize `json:"TotalBytes"`
	// TotalMessages is the number of point-to-point messages sent.
	TotalMessages int `json:"TotalMessages"`
	// RankEnd holds every rank's finish time.
	RankEnd []units.Seconds `json:"RankEnd"`
	// Kernel reports the vtime scheduler's counters for this execution
	// — wall-cost observability, not simulated output, so it is
	// excluded from persisted results.
	Kernel vtime.Counters `json:"-"`
}

// Run executes body on every rank and returns the execution statistics.
func Run(cfg Config, body func(r *Rank)) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if cfg.Allreduce < AllreduceRecursiveDoubling || cfg.Allreduce > AllreduceHierarchical {
		return Stats{}, fmt.Errorf("mpi: unknown allreduce algorithm %d", int(cfg.Allreduce))
	}
	w := &World{
		cfg:   cfg,
		sched: vtime.NewScheduler(cfg.Ranks),
		ranks: make([]*Rank, cfg.Ranks),
		nics:  make([]*vtime.Resource, cfg.Nodes),
		boxes: make([]mailbox, cfg.Ranks),
	}
	for n := range w.nics {
		w.nics[n] = vtime.NewResource(fmt.Sprintf("nic-%d", n))
	}
	if cfg.Tap != nil {
		w.sched.SetTracer(cfg.Tap)
	}
	procs := w.sched.Procs()
	for i := range w.ranks {
		node := cfg.NodeOf(i)
		if node < 0 || node >= cfg.Nodes {
			return Stats{}, fmt.Errorf("mpi: rank %d placed on node %d of %d", i, node, cfg.Nodes)
		}
		w.ranks[i] = &Rank{w: w, proc: procs[i], id: i, node: node}
	}
	end := w.sched.Run(func(p *vtime.Proc) {
		r := w.ranks[p.ID]
		if cfg.StartupSkew != nil {
			p.Advance(cfg.StartupSkew(r.id))
		}
		body(r)
	})

	st := Stats{End: end, RankEnd: make([]units.Seconds, cfg.Ranks), Kernel: w.sched.Counters()}
	var sumComm units.Seconds
	for i, r := range w.ranks {
		st.RankEnd[i] = r.proc.Now()
		if r.commTime > st.MaxCommTime {
			st.MaxCommTime = r.commTime
		}
		sumComm += r.commTime
		st.TotalBytes += r.bytesSent
		st.TotalMessages += r.msgsSent
	}
	st.AvgCommTime = sumComm / units.Seconds(cfg.Ranks)
	return st, nil
}

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.cfg.Ranks }

// Now returns the rank's virtual clock.
func (r *Rank) Now() units.Seconds { return r.proc.Now() }

// CommTime returns the rank's accumulated time inside MPI operations.
func (r *Rank) CommTime() units.Seconds { return r.commTime }

// Compute charges d of application computation, scaled by the runtime's
// compute dilation.
func (r *Rank) Compute(d units.Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("mpi: rank %d computed negative duration %v", r.id, d))
	}
	r.proc.Advance(d * units.Seconds(r.w.cfg.ComputeDilation))
}

// path returns the transport for a message from r to dst.
func (r *Rank) path(dst int) *fabric.Transport {
	t := r.w.cfg.Path(r.id, dst)
	if t == nil {
		panic(fmt.Sprintf("mpi: no path from rank %d to %d", r.id, dst))
	}
	return t
}

// nic returns the injection-port resource of a node.
func (w *World) nic(node int) *vtime.Resource { return w.nics[node] }

// timed wraps an MPI operation, accumulating its duration into the
// rank's communication time.
func (r *Rank) timed(f func()) {
	start := r.proc.Now()
	f()
	r.commTime += r.proc.Now() - start
}
