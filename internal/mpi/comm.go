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

	// nodes is the range's shared node grouping and localRank this
	// rank's index among its node's peers there; the first hierarchical
	// collective looks them up.
	nodes     *nodeGroups
	localRank int
}

// nodeGroups is the node topology of one communicator range, built once
// per World and shared by the range's ranks.
type nodeGroups struct {
	lo, n int
	// leaders are each occupied node's lowest comm rank, ascending;
	// peers[i] are the comm ranks on leaders[i]'s node, ascending.
	leaders []int
	peers   [][]int
	// groupOf maps a node to its index in leaders and peers (-1: none
	// of the range's ranks runs there).
	groupOf []int32
}

// nodeGroups returns the grouping of the range [lo, lo+n). The first
// rank to ask builds it — one rank runs at a time, so unlocked.
func (w *World) nodeGroups(lo, n int) *nodeGroups {
	for _, g := range w.groups {
		if g.lo == lo && g.n == n {
			return g
		}
	}
	g := &nodeGroups{lo: lo, n: n, groupOf: make([]int32, w.cfg.Nodes)}
	for i := range g.groupOf {
		g.groupOf[i] = -1
	}
	for cr := 0; cr < n; cr++ {
		node := w.ranks[lo+cr].node
		i := g.groupOf[node]
		if i < 0 {
			i = int32(len(g.leaders))
			g.groupOf[node] = i
			g.leaders = append(g.leaders, cr)
			g.peers = append(g.peers, nil)
		}
		g.peers[i] = append(g.peers[i], cr)
	}
	w.groups = append(w.groups, g)
	return g
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
