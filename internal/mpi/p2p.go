package mpi

import (
	"fmt"
	"slices"

	"repro/internal/fabric"
	"repro/internal/units"
	"repro/internal/vtime"
)

// Request is one endpoint of a point-to-point transfer, a send or a
// receive: the handle Isend and Irecv return to its owner and, until a
// counterpart arrives, the entry queued in the destination's mailbox.
// Those are its two holders — the owner until Wait returns it, the
// mailbox until a match removes it — and the World recycles the record
// once both have let go, so a request must not be used after its Wait.
type Request struct {
	// owner is nil once Wait has consumed the request.
	owner *Rank
	// held counts the holders that have yet to release the record.
	held       int8
	completeAt units.Seconds
	// kind is the tag Wait parks and idles under ("wait:isend", ...),
	// stored whole so the hot path builds no string.
	kind string
	// src — the sending world rank — and tag are the match key.
	src, tag int
	// buf is a send's private copy of the payload or a receive's
	// destination; nil for a size-only (model) endpoint, which moves no
	// bytes in host memory but is costed, and its length validated,
	// exactly like a payload of count float64s.
	buf   []float64
	count int
	// own is a send's payload storage, kept across reuse of the record.
	own []float64
	// at is when this side is ready: a receive's post time, an eager
	// send's arrival at the receiver, a rendezvous send's RTS time.
	at units.Seconds
	// tr and sentAt are set on sends only. sentAt is when the sender
	// entered the send, for the log's latency accounting.
	tr     *fabric.Transport
	sentAt units.Seconds
	done   bool
}

// size is a send's wire size.
func (q *Request) size() units.ByteSize { return payloadSize(q.count) }

// eager reports whether a send takes the eager protocol.
func (q *Request) eager() bool { return q.tr.Eager(q.size()) }

// complete marks the request finished at time t.
func (q *Request) complete(t units.Seconds) {
	q.done = true
	q.completeAt = t
}

// request hands out a record with both holders set, from the free list
// when it has one. One rank runs at a time, so the list is unlocked.
func (w *World) request() (q *Request) {
	if n := len(w.free); n > 0 {
		q, w.free = w.free[n-1], w.free[:n-1]
	} else {
		q = new(Request)
	}
	q.held = 2
	return q
}

// release drops one holder of q after its last read; the last holder
// zeroes the record, keeping a send's payload storage, and frees it.
func (w *World) release(q *Request) {
	if q.held--; q.held == 0 {
		*q = Request{own: q.own}
		w.free = append(w.free, q)
	}
}

// mailbox holds a destination rank's unexpected sends and posted
// receives.
type mailbox struct {
	sends, posts []*Request
}

// match removes and returns the oldest request in queue keyed (src,
// tag) — matching is FIFO within a key — or nil when there is none.
func match(queue *[]*Request, src, tag int) *Request {
	for i, q := range *queue {
		if q.src == src && q.tag == tag {
			*queue = slices.Delete(*queue, i, i+1)
			return q
		}
	}
	return nil
}

// payloadSize converts a float64 count to wire bytes.
func payloadSize(n int) units.ByteSize { return units.ByteSize(8 * n) }

// deliver computes the arrival time of a matched transfer whose payload
// may start moving at `start` on transport tr, accounting for NIC
// serialization on the sending node when the path shares the NIC.
func (w *World) deliver(tr *fabric.Transport, srcNode int, start units.Seconds, size units.ByteSize) units.Seconds {
	wire := tr.WireTime(size)
	if tr.SharesNIC {
		return w.nic(srcNode).ReserveAt(start, wire) + tr.Latency
	}
	return start + wire + tr.Latency
}

// Send transmits data to dst with the given tag. Small messages are
// eager (buffered, sender returns after its CPU cost); large messages
// use rendezvous and block the sender until the receiver has the data —
// matching the synchronous behaviour of real MPI large-message sends.
// An eager send's request is complete on return from send, so the wait
// is then a no-op.
func (r *Rank) Send(dst, tag int, data []float64) {
	r.timed(func() { r.waitOne(r.send(dst, tag, data, len(data), "wait:send-rdv")) })
}

// SendModel is Send for a size-only payload of n float64s, costed,
// matched and logged exactly like a send of n zeros.
func (r *Rank) SendModel(dst, tag, n int) {
	r.timed(func() { r.waitOne(r.send(dst, tag, nil, n, "wait:send-rdv")) })
}

// Isend starts a nonblocking send and returns its request. Eager sends
// complete immediately after local CPU cost; rendezvous sends complete
// when the receiver has the data (observe via Wait).
func (r *Rank) Isend(dst, tag int, data []float64) *Request {
	var req *Request
	r.timed(func() { req = r.send(dst, tag, data, len(data), "wait:isend") })
	return req
}

// IsendModel is Isend for a size-only payload of n float64s: it pays
// every transport cost of the full message without moving data — the
// workload model's replacement for sending a zero buffer.
func (r *Rank) IsendModel(dst, tag, n int) *Request {
	var req *Request
	r.timed(func() { req = r.send(dst, tag, nil, n, "wait:isend") })
	return req
}

// send starts a send and returns its request, which the caller waits on
// under kind. data is nil for size-only messages; count is the payload
// length in float64s in either case.
func (r *Rank) send(dst, tag int, data []float64, count int, kind string) *Request {
	if dst < 0 || dst >= r.w.cfg.Ranks {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", r.id, dst))
	}
	if dst == r.id {
		panic(fmt.Sprintf("mpi: rank %d sends to itself (tag %d)", r.id, tag))
	}
	tr := r.path(dst)
	size := payloadSize(count)
	r.proc.Sync() // establish global virtual-time order before matching
	r.bytesSent += size
	r.msgsSent++

	s := r.w.request()
	s.owner, s.kind, s.src, s.tag = r, kind, r.id, tag
	s.count, s.tr, s.sentAt = count, tr, r.proc.Now()
	// The payload is copied at send time: MPI buffer semantics. The
	// copy also prevents aliasing bugs between rank bodies. Size-only
	// messages skip the copy — there is nothing to alias.
	if data != nil {
		s.own = append(s.own[:0], data...)
		s.buf = s.own
	}
	eager := tr.Eager(size)
	if eager {
		// Fire and forget: the sender is done after its CPU cost.
		r.proc.Advance(tr.CPUCost(size))
		s.at = r.w.deliver(tr, r.node, r.proc.Now(), size)
		s.complete(r.proc.Now())
	} else {
		r.proc.Advance(tr.Overhead) // RTS packet cost
		s.at = r.proc.Now()
	}
	box := &r.w.boxes[dst]
	recv := match(&box.posts, r.id, tag)
	if recv == nil {
		box.sends = append(box.sends, s)
		return s
	}
	arrival := r.w.landing(recv, s)
	r.settle(recv, s, arrival)
	if !eager {
		// Receiver already waiting. The sender is done when the payload
		// lands, before the receiver's CPU cost.
		s.complete(arrival)
	}
	r.w.release(recv)
	r.w.release(s) // matched on arrival: never queued
	return s
}

// Recv blocks until a matching message arrives and copies it into buf.
// buf must have exactly the sent length; mismatches panic, which in a
// simulator is the most useful behaviour for a truncation bug.
func (r *Rank) Recv(src, tag int, buf []float64) {
	r.timed(func() { r.waitOne(r.irecv(src, tag, buf, len(buf))) })
}

// RecvModel is Recv for a size-only message of n float64s.
func (r *Rank) RecvModel(src, tag, n int) {
	r.timed(func() { r.waitOne(r.irecv(src, tag, nil, n)) })
}

// Irecv posts a nonblocking receive into buf.
func (r *Rank) Irecv(src, tag int, buf []float64) *Request {
	var req *Request
	r.timed(func() { req = r.irecv(src, tag, buf, len(buf)) })
	return req
}

// IrecvModel posts a nonblocking size-only receive of n float64s.
func (r *Rank) IrecvModel(src, tag, n int) *Request {
	var req *Request
	r.timed(func() { req = r.irecv(src, tag, nil, n) })
	return req
}

func (r *Rank) irecv(src, tag int, buf []float64, count int) *Request {
	if src < 0 || src >= r.w.cfg.Ranks {
		panic(fmt.Sprintf("mpi: rank %d receives from invalid rank %d", r.id, src))
	}
	if src == r.id {
		panic(fmt.Sprintf("mpi: rank %d receives from itself (tag %d)", r.id, tag))
	}
	r.proc.Sync()
	recv := r.w.request()
	recv.owner, recv.kind, recv.src, recv.tag = r, "wait:irecv", src, tag
	recv.buf, recv.count, recv.at = buf, count, r.proc.Now()
	box := &r.w.boxes[r.id]
	s := match(&box.sends, src, tag)
	if s == nil {
		box.posts = append(box.posts, recv)
		return recv
	}
	done := r.settle(recv, s, r.w.landing(recv, s))
	if !s.eager() {
		// A queued rendezvous send completes with the receive; if its
		// owner is parked in a blocking Send or in Wait, bring it back.
		s.complete(done)
		r.wakeIfBlocked(s.owner, done)
	}
	r.w.release(s)
	r.w.release(recv) // matched on arrival: never queued
	return recv
}

// landing returns when a matched send's payload reaches the receiving
// node: an eager payload is already on its way, a rendezvous transfer
// starts once both sides are ready and the CTS has crossed.
func (w *World) landing(recv, send *Request) units.Seconds {
	ready := units.Max(send.at, recv.at)
	if send.eager() {
		return ready
	}
	return w.deliver(send.tr, send.owner.node, ready+send.tr.Latency, send.size())
}

// settle completes a matched receive whose payload lands at arrival: it
// charges the receiver's CPU cost, moves the payload, completes the
// receive, logs the message and wakes the receiver if it
// is parked. It returns the completion time. Both match sites — a send
// finding a posted receive and a receive finding a queued send — end
// here.
func (r *Rank) settle(recv, send *Request, arrival units.Seconds) units.Seconds {
	arrival += send.tr.CPUCost(send.size())
	copyPayload(recv, send)
	recv.complete(arrival)
	if l := r.w.cfg.Log; l != nil {
		l.Add(vtime.Event{Kind: vtime.EvMessage, A: int32(send.src), B: int32(recv.owner.id), C: int32(send.tag),
			T0: send.sentAt, T1: arrival, Size: send.size()}, send.tr.Name)
	}
	r.wakeIfBlocked(recv.owner, arrival)
	return arrival
}

// wakeIfBlocked wakes a peer rank parked in Wait if its request is now
// satisfied — one peer per completed request; there is no bulk wake.
// The kernel defers the wake: the peer joins the run queue at this
// rank's next yield point, so completions separated only by fast-path
// Syncs (a Bcast root eagerly satisfying one blocked child per send)
// flush as one batched insert instead of one heap push each. The vtime
// kernel only lets us wake genuinely blocked procs, so Wait marks
// itself via the waiting flag before parking.
func (r *Rank) wakeIfBlocked(peer *Rank, at units.Seconds) {
	if peer.waiting {
		r.proc.Wake(peer.proc, at)
		peer.waiting = false
	}
}

func copyPayload(recv, send *Request) {
	if recv.count != send.count {
		panic(fmt.Sprintf("mpi: recv buffer length %d != message length %d (src %d dst %d tag %d)",
			recv.count, send.count, send.src, recv.owner.id, send.tag))
	}
	// Size-only endpoints move no data between themselves. A size-only
	// message delivers zeros, so a real receive buffer matched against
	// one is cleared to preserve the zero-payload semantics.
	switch {
	case recv.buf == nil:
	case send.buf != nil:
		copy(recv.buf, send.buf)
	default:
		clear(recv.buf)
	}
}

// Wait blocks until every request completes, advancing the rank's clock
// to the latest completion. It consumes the requests, as MPI_Wait
// does: a waited request must not be used again.
func (r *Rank) Wait(reqs ...*Request) {
	r.timed(func() {
		for _, q := range reqs {
			r.waitOne(q)
		}
	})
}

func (r *Rank) waitOne(q *Request) {
	switch q.owner {
	case r:
	case nil:
		panic(fmt.Sprintf("mpi: rank %d waits on a request already consumed by Wait", r.id))
	default:
		panic(fmt.Sprintf("mpi: rank %d waits on rank %d's request", r.id, q.owner.id))
	}
	for !q.done {
		r.waiting = true
		r.proc.Block(q.kind)
	}
	r.waiting = false
	r.idleTo(q.kind, q.completeAt)
	q.owner = nil // a match never reads an eager send's owner
	r.w.release(q)
}

// idleTo advances the rank's clock to t, logging the jump (a wait on
// an already-completed operation whose finish time lies ahead) so
// profilers can attribute it. Blocked waits are logged by the kernel's
// own park/wake events instead.
func (r *Rank) idleTo(tag string, t units.Seconds) {
	if l := r.w.cfg.Log; l != nil && t > r.proc.Now() {
		l.Add(vtime.Event{Kind: vtime.EvIdle, A: int32(r.id), T0: r.proc.Now(), T1: t}, tag)
	}
	r.proc.AdvanceTo(t)
}

// SendRecv performs a simultaneous exchange with two peers — the
// deadlock-free building block of halo exchanges.
func (r *Rank) SendRecv(dst, sendTag int, sendBuf []float64, src, recvTag int, recvBuf []float64) {
	rq := r.Irecv(src, recvTag, recvBuf)
	sq := r.Isend(dst, sendTag, sendBuf)
	r.Wait(rq, sq)
}
