package mpi

import (
	"fmt"
	"math"
	"sort"
)

// Op is an elementwise reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// String names the operator.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// apply folds src into dst elementwise.
func (op Op) apply(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: reduction length mismatch %d != %d", len(dst), len(src)))
	}
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	case OpMin:
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

// Collective tags live in a reserved band per rank pair so application
// traffic (tags >= 0 from user code) never matches collective traffic.
const (
	tagBarrier   = -1000
	tagAllreduce = -2000
	tagBcast     = -3000
	tagReduce    = -4000

	// tagLeaders offsets the butterfly's tags when it runs among node
	// leaders inside the hierarchical allreduce.
	tagLeaders = tagAllreduce - 600
)

// beginPhase and endPhase report the calling rank entering and leaving
// a collective to the world's Tap (when nobody listens the hot path
// costs one nil check each).
func (c *Comm) beginPhase(name string) {
	if tap := c.r.w.cfg.Tap; tap != nil {
		tap.PhaseBegin(c.r.id, name, c.r.proc.Now())
	}
}

func (c *Comm) endPhase(name string) {
	if tap := c.r.w.cfg.Tap; tap != nil {
		tap.PhaseEnd(c.r.id, name, c.r.proc.Now())
	}
}

// Barrier synchronizes all ranks with the dissemination algorithm:
// ceil(log2 P) rounds of zero-byte exchanges.
func (c *Comm) Barrier() {
	c.beginPhase("barrier")
	c.barrier()
	c.endPhase("barrier")
}

func (c *Comm) barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	empty := []float64{}
	recv := []float64{}
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (c.me + k) % p
		src := (c.me - k + p) % p
		c.sendRecv(dst, tagBarrier-round, empty, src, tagBarrier-round, recv)
	}
}

// Allreduce reduces buf elementwise across all ranks and leaves the
// result in buf on every rank, using the configured algorithm.
func (c *Comm) Allreduce(buf []float64, op Op) {
	if c.Size() == 1 {
		return
	}
	c.beginPhase("allreduce")
	c.allreduce(buf, op)
	c.endPhase("allreduce")
}

func (c *Comm) allreduce(buf []float64, op Op) {
	switch c.r.w.cfg.Allreduce {
	case AllreduceRecursiveDoubling:
		c.recursiveDoubling(nil, c.me, tagAllreduce, buf, make([]float64, len(buf)), op)
	case AllreduceRing:
		c.allreduceRing(buf, op)
	case AllreduceReduceBcast:
		c.Reduce(buf, 0, op)
		c.Bcast(buf, 0)
	case AllreduceHierarchical:
		c.allreduceHier(buf, op)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %d", int(c.r.w.cfg.Allreduce)))
	}
}

// allreduceHier is the shared-memory-aware algorithm every production
// MPI applies at scale: reduce within each node to a leader over the
// (fast) intra-node path, recursive-double among the node leaders over
// the fabric, then broadcast within each node. The fabric's latency is
// paid ceil(log2 #nodes) times instead of ceil(log2 P).
func (c *Comm) allreduceHier(buf []float64, op Op) {
	if c.nodes == nil {
		c.nodes = c.r.w.nodeGroups(c.lo, c.n)
		c.localRank = sort.SearchInts(c.nodes.peers[c.nodes.groupOf[c.r.node]], c.me)
	}
	group := c.nodes.groupOf[c.r.node]
	localPeers, leaders := c.nodes.peers[group], c.nodes.leaders
	tmp := make([]float64, len(buf))
	// 1. Intra-node binomial reduce to the node leader (local rank 0).
	lr, ln := c.localRank, len(localPeers)
	for mask := 1; mask < ln; mask <<= 1 {
		if lr&mask != 0 {
			c.send(localPeers[lr-mask], tagAllreduce-400, buf)
			break
		}
		if lr+mask < ln {
			c.recv(localPeers[lr+mask], tagAllreduce-400, tmp)
			op.apply(buf, tmp)
		}
	}
	// 2. Leaders recursive-double across nodes.
	if lr == 0 && len(leaders) > 1 {
		c.recursiveDoubling(leaders, int(group), tagLeaders, buf, tmp, op)
	}
	// 3. Intra-node binomial broadcast from the leader.
	if ln > 1 {
		if lr != 0 {
			mask := 1
			for mask <= lr {
				mask <<= 1
			}
			mask >>= 1
			c.recv(localPeers[lr-mask], tagAllreduce-500, buf)
		}
		for mask := lowestPow2Above(lr); lr+mask < ln; mask <<= 1 {
			c.send(localPeers[lr+mask], tagAllreduce-500, buf)
		}
	}
}

// recursiveDoubling runs the butterfly among the comm ranks listed in
// subset (nil: every rank of the communicator), me being the caller's
// index among them, with the standard non-power-of-two pre/post phase:
// the first 2*rem ranks pair up so a power-of-two core performs the
// butterfly, then results fan back out. Tags count down from tag.
func (c *Comm) recursiveDoubling(subset []int, me, tag int, buf, tmp []float64, op Op) {
	p := c.n
	if subset != nil {
		p = len(subset)
	}
	at := func(i int) int {
		if subset == nil {
			return i
		}
		return subset[i]
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	newRank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		// Fold into the odd partner, then sit out the butterfly.
		c.send(at(me+1), tag, buf)
	case me < 2*rem:
		c.recv(at(me-1), tag, tmp)
		op.apply(buf, tmp)
		newRank = me / 2
	default:
		newRank = me - rem
	}
	if newRank >= 0 {
		for mask, round := 1, 0; mask < pof2; mask, round = mask<<1, round+1 {
			peer := newRank ^ mask
			if peer < rem {
				peer = peer*2 + 1
			} else {
				peer += rem
			}
			c.sendRecv(at(peer), tag-1-round, buf, at(peer), tag-1-round, tmp)
			op.apply(buf, tmp)
		}
	}
	// Post phase: odd folded ranks return results to their even pairs.
	switch {
	case me < 2*rem && me%2 == 0:
		c.recv(at(me+1), tag-100, buf)
	case me < 2*rem:
		c.send(at(me-1), tag-100, buf)
	}
}

// allreduceRing is the bandwidth-optimal reduce-scatter + allgather
// ring: each rank sends 2(P-1) chunks of size n/P.
func (c *Comm) allreduceRing(buf []float64, op Op) {
	p := c.Size()
	n := len(buf)
	if n == 0 {
		c.Barrier()
		return
	}
	// Chunk boundaries (block distribution of buf across ranks).
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	chunk := func(i int) []float64 {
		i = ((i % p) + p) % p
		return buf[bounds[i]:bounds[i+1]]
	}
	next := (c.me + 1) % p
	prev := (c.me - 1 + p) % p
	tmp := make([]float64, n) // large enough for any chunk

	// Reduce-scatter phase.
	for step := 0; step < p-1; step++ {
		out := chunk(c.me - step)
		in := chunk(c.me - step - 1)
		c.sendRecv(next, tagAllreduce-200-step, out, prev, tagAllreduce-200-step, tmp[:len(in)])
		op.apply(in, tmp[:len(in)])
	}
	// Allgather phase.
	for step := 0; step < p-1; step++ {
		out := chunk(c.me + 1 - step)
		in := chunk(c.me - step)
		c.sendRecv(next, tagAllreduce-300-step, out, prev, tagAllreduce-300-step, tmp[:len(in)])
		copy(in, tmp[:len(in)])
	}
}

// Bcast broadcasts root's buf to all ranks over a binomial tree.
func (c *Comm) Bcast(buf []float64, root int) {
	c.beginPhase("bcast")
	c.bcast(buf, root)
	c.endPhase("bcast")
}

func (c *Comm) bcast(buf []float64, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: bcast root %d out of range", root))
	}
	// Work in a rotated space where root is rank 0.
	vrank := (c.me - root + p) % p
	// Receive from parent (highest set bit), unless root.
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := (vrank - mask + root) % p
		c.recv(parent, tagBcast, buf)
	}
	// Forward to children.
	low := lowestPow2Above(vrank)
	for mask := low; vrank+mask < p; mask <<= 1 {
		child := (vrank + mask + root) % p
		c.send(child, tagBcast, buf)
	}
}

// lowestPow2Above returns the smallest power of two strictly greater
// than v's highest set bit — i.e. where v's children start in a
// binomial tree (1 for v == 0).
func lowestPow2Above(v int) int {
	m := 1
	for m <= v {
		m <<= 1
	}
	return m
}

// Reduce folds buf from all ranks into root's buf over a binomial tree.
// Non-root buffers are left with their partial reductions (like MPI,
// their contents are undefined afterwards; do not rely on them).
func (c *Comm) Reduce(buf []float64, root int, op Op) {
	c.beginPhase("reduce")
	c.reduce(buf, root, op)
	c.endPhase("reduce")
}

func (c *Comm) reduce(buf []float64, root int, op Op) {
	p := c.Size()
	if p == 1 {
		return
	}
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mpi: reduce root %d out of range", root))
	}
	vrank := (c.me - root + p) % p
	tmp := make([]float64, len(buf))
	// Mirror image of the bcast tree: receive from children first.
	low := lowestPow2Above(vrank)
	// Children of vrank are vrank+m for m in {low, low*2, ...}; to
	// reduce bottom-up we visit them from the largest down.
	var children []int
	for mask := low; vrank+mask < p; mask <<= 1 {
		children = append(children, vrank+mask)
	}
	for i := len(children) - 1; i >= 0; i-- {
		child := (children[i] + root) % p
		c.recv(child, tagReduce, tmp)
		op.apply(buf, tmp)
	}
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := (vrank - mask + root) % p
		c.send(parent, tagReduce, buf)
	}
}

// AllreduceScalar reduces a single value — the hot path of Krylov dot
// products — and returns the result.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	buf := []float64{v}
	c.Allreduce(buf, op)
	return buf[0]
}
