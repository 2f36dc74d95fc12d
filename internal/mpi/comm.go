package mpi

import "fmt"

// Comm is a communicator: the contiguous range [lo, lo+n) of world
// ranks, numbered from 0 in world order, that runs collectives among
// themselves. The FSI case uses two disjoint comms — one per coupled
// code — exactly like Alya's split MPI_COMM_WORLD.
type Comm struct {
	r     *Rank
	lo, n int
	me    int // this rank's index within the range

	// hierCache holds the node-grouping the hierarchical allreduce
	// uses, built once per communicator.
	hierCache *hierInfo
}

// hierInfo is the node topology of a communicator as the hierarchical
// collectives see it.
type hierInfo struct {
	// localPeers are the comm ranks sharing this rank's node,
	// ascending; localRank is this rank's index within them.
	localPeers []int
	localRank  int
	// leaders are each node's lowest comm rank, ascending; leaderIdx
	// is this rank's index among them (meaningful when localRank==0).
	leaders   []int
	leaderIdx int
}

// hier lazily computes the node grouping.
func (c *Comm) hier() *hierInfo {
	if c.hierCache != nil {
		return c.hierCache
	}
	nodeOf := c.r.w.cfg.NodeOf
	myNode := nodeOf(c.lo + c.me)
	h := &hierInfo{leaderIdx: -1}
	seen := make(map[int]bool)
	for cr := 0; cr < c.n; cr++ {
		n := nodeOf(c.lo + cr)
		if !seen[n] {
			seen[n] = true
			h.leaders = append(h.leaders, cr)
		}
		if n == myNode {
			if cr == c.me {
				h.localRank = len(h.localPeers)
			}
			h.localPeers = append(h.localPeers, cr)
		}
	}
	// Leaders arrive in first-appearance order; comm ranks ascend, so
	// the list is ascending already. Locate self among leaders.
	for i, l := range h.leaders {
		if l == c.me {
			h.leaderIdx = i
		}
	}
	c.hierCache = h
	return h
}

// World returns the all-ranks communicator for this rank.
func (r *Rank) World() *Comm {
	if r.world == nil {
		r.world = &Comm{r: r, n: r.w.cfg.Ranks, me: r.id}
	}
	return r.world
}

// NewComm builds the communicator over world ranks [lo, hi), which must
// include the calling rank; comm rank i is world rank lo+i
// (MPI_Comm_split semantics with key = world rank, for the contiguous
// colourings Alya's code split produces).
func (r *Rank) NewComm(lo, hi int) (*Comm, error) {
	switch {
	case lo >= hi:
		return nil, fmt.Errorf("mpi: empty communicator [%d, %d)", lo, hi)
	case lo < 0 || hi > r.w.cfg.Ranks:
		return nil, fmt.Errorf("mpi: communicator [%d, %d) outside world of %d", lo, hi, r.w.cfg.Ranks)
	case r.id < lo || r.id >= hi:
		return nil, fmt.Errorf("mpi: rank %d not a member of its own communicator [%d, %d)", r.id, lo, hi)
	}
	return &Comm{r: r, lo: lo, n: hi - lo, me: r.id - lo}, nil
}

// Rank returns the calling rank's index within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.n }

// send/recv/sendRecv translate comm ranks to world ranks for the
// point-to-point layer. Disjoint communicators cannot cross-match
// because matching is keyed on world-rank pairs.
func (c *Comm) send(dst, tag int, data []float64) { c.r.Send(c.lo+dst, tag, data) }
func (c *Comm) recv(src, tag int, buf []float64)  { c.r.Recv(c.lo+src, tag, buf) }
func (c *Comm) sendRecv(dst, sendTag int, sendBuf []float64, src, recvTag int, recvBuf []float64) {
	c.r.SendRecv(c.lo+dst, sendTag, sendBuf, c.lo+src, recvTag, recvBuf)
}

// Isend starts a nonblocking send to a comm rank.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	return c.r.Isend(c.lo+dst, tag, data)
}

// IsendModel starts a nonblocking size-only send of n float64s to a
// comm rank: full transport costs, no payload in host memory.
func (c *Comm) IsendModel(dst, tag, n int) *Request {
	return c.r.IsendModel(c.lo+dst, tag, n)
}

// Irecv posts a nonblocking receive from a comm rank.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	return c.r.Irecv(c.lo+src, tag, buf)
}

// IrecvModel posts a nonblocking size-only receive of n float64s from
// a comm rank.
func (c *Comm) IrecvModel(src, tag, n int) *Request {
	return c.r.IrecvModel(c.lo+src, tag, n)
}

// Base returns the underlying world rank handle (for Wait, Compute,
// and cross-communicator point-to-point).
func (c *Comm) Base() *Rank { return c.r }

// Barrier synchronizes all world ranks.
func (r *Rank) Barrier() { r.World().Barrier() }

// AllreduceScalar reduces one value across all world ranks.
func (r *Rank) AllreduceScalar(v float64, op Op) float64 { return r.World().AllreduceScalar(v, op) }
