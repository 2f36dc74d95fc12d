package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/units"
)

// message is an in-flight point-to-point payload.
type message struct {
	src, dst, tag int
	// data carries the payload values; nil for size-only (model)
	// messages, which move no bytes in host memory but are costed
	// exactly like a payload of count float64s.
	data  []float64
	count int
	size  units.ByteSize
	tr    *fabric.Transport
	eager bool
	// readyAt is, for eager messages, the time the payload is fully
	// available at the receiver; for rendezvous messages, the time the
	// sender posted (RTS time).
	readyAt units.Seconds
	// sentAt is when the sender entered the send, for the Tap's latency
	// accounting.
	sentAt units.Seconds
	// sreq, when non-nil, is the sender's request to complete once the
	// transfer finishes (rendezvous Isend or blocking Send).
	sreq *Request
	// sender lets the receiver wake a blocked sender.
	sender *Rank
}

// recvPost is a posted receive awaiting a matching send.
type recvPost struct {
	src, tag int
	// buf receives the payload; nil for size-only (model) receives
	// that only validate the expected count.
	buf      []float64
	count    int
	postedAt units.Seconds
	req      *Request
	owner    *Rank
}

// mailbox holds a destination rank's unexpected messages and posted
// receives. Matching is FIFO within (src, tag).
type mailbox struct {
	sends []*message
	posts []*recvPost
}

func (m *mailbox) matchSend(src, tag int) *message {
	for i, msg := range m.sends {
		if msg.src == src && msg.tag == tag {
			m.sends = append(m.sends[:i], m.sends[i+1:]...)
			return msg
		}
	}
	return nil
}

func (m *mailbox) matchPost(src, tag int) *recvPost {
	for i, p := range m.posts {
		if p.src == src && p.tag == tag {
			m.posts = append(m.posts[:i], m.posts[i+1:]...)
			return p
		}
	}
	return nil
}

// Request tracks completion of a nonblocking operation.
type Request struct {
	owner      *Rank
	done       bool
	completeAt units.Seconds
	// kind is the tag Wait parks and idles under ("wait:isend", ...),
	// stored whole so the hot path builds no string.
	kind string
	seq  int
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

func (r *Rank) newRequest(kind string) *Request {
	r.reqSeq++
	return &Request{owner: r, kind: kind, seq: r.reqSeq}
}

// complete marks the request finished at time t.
func (q *Request) complete(t units.Seconds) {
	q.done = true
	q.completeAt = t
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
func (r *Rank) Send(dst, tag int, data []float64) {
	r.timed(func() { r.send(dst, tag, data, len(data), nil) })
}

// Isend starts a nonblocking send and returns its request. Eager sends
// complete immediately after local CPU cost; rendezvous sends complete
// when the receiver has the data (observe via Wait).
func (r *Rank) Isend(dst, tag int, data []float64) *Request {
	var req *Request
	r.timed(func() {
		req = r.newRequest("wait:isend")
		r.send(dst, tag, data, len(data), req)
	})
	return req
}

// IsendModel is Isend for a size-only payload of n float64s: it pays
// every transport cost of the full message without moving data — the
// workload model's replacement for sending a zero buffer.
func (r *Rank) IsendModel(dst, tag, n int) *Request {
	var req *Request
	r.timed(func() {
		req = r.newRequest("wait:isend")
		r.send(dst, tag, nil, n, req)
	})
	return req
}

// send implements Send (req == nil) and Isend/IsendModel (req != nil).
// data is nil for size-only messages; count is the payload length in
// float64s in either case.
func (r *Rank) send(dst, tag int, data []float64, count int, req *Request) {
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

	// The payload is copied at send time: MPI buffer semantics. The
	// copy also prevents aliasing bugs between rank bodies. Size-only
	// messages skip the copy — there is nothing to alias.
	var payload []float64
	if data != nil {
		payload = make([]float64, len(data))
		copy(payload, data)
	}

	eager := tr.Eager(size)
	cpu := tr.CPUCost(size)
	msg := &message{
		src: r.id, dst: dst, tag: tag,
		data: payload, count: count, size: size, tr: tr,
		eager: eager, sender: r, sreq: req,
		sentAt: r.proc.Now(),
	}
	box := &r.w.boxes[dst]

	if eager {
		r.proc.Advance(cpu)
		msg.readyAt = r.w.deliver(tr, r.node, r.proc.Now(), size)
		if req != nil {
			req.complete(r.proc.Now())
		}
		if post := box.matchPost(msg.src, msg.tag); post != nil {
			r.settle(post, msg, r.w.landing(post, msg))
			return
		}
		box.sends = append(box.sends, msg)
		return
	}

	// Rendezvous: post the RTS, then either block (Send) or let the
	// request track completion (Isend).
	r.proc.Advance(tr.Overhead) // RTS packet cost
	msg.readyAt = r.proc.Now()
	if post := box.matchPost(msg.src, msg.tag); post != nil {
		// Receiver already waiting. The sender is done when the payload
		// lands, before the receiver's CPU cost.
		arrival := r.w.landing(post, msg)
		r.settle(post, msg, arrival)
		if req != nil {
			req.complete(arrival)
		} else {
			r.idleTo("wait:send-rdv", arrival)
		}
		return
	}
	box.sends = append(box.sends, msg)
	if req == nil {
		msg.sreq = r.newRequest("wait:send-rdv")
		r.waitOne(msg.sreq)
	}
}

// Recv blocks until a matching message arrives and copies it into buf.
// buf must have exactly the sent length; mismatches panic, which in a
// simulator is the most useful behaviour for a truncation bug.
func (r *Rank) Recv(src, tag int, buf []float64) {
	r.timed(func() {
		req := r.irecv(src, tag, buf, len(buf))
		r.waitOne(req)
	})
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
	req := r.newRequest("wait:irecv")
	r.proc.Sync()
	box := &r.w.boxes[r.id]
	post := &recvPost{src: src, tag: tag, buf: buf, count: count, postedAt: r.proc.Now(), req: req, owner: r}
	if msg := box.matchSend(src, tag); msg != nil {
		done := r.settle(post, msg, r.w.landing(post, msg))
		if !msg.eager && msg.sreq != nil {
			// Complete the sender's request; if the sender is parked in a
			// blocking rendezvous Send or in Wait, bring it back.
			msg.sreq.complete(done)
			r.wakeIfBlocked(msg.sender, done)
		}
		return req
	}
	box.posts = append(box.posts, post)
	return req
}

// landing returns when a matched message's payload reaches the
// receiving node: an eager payload is already on its way, a rendezvous
// transfer starts once both sides are ready and the CTS has crossed.
func (w *World) landing(post *recvPost, msg *message) units.Seconds {
	ready := units.Max(msg.readyAt, post.postedAt)
	if msg.eager {
		return ready
	}
	return w.deliver(msg.tr, msg.sender.node, ready+msg.tr.Latency, msg.size)
}

// settle completes a matched receive whose payload lands at arrival: it
// charges the receiver's CPU cost, moves the payload, completes the
// receive request, reports the message to the Tap and wakes the
// receiver if it is parked. It returns the completion time. All three
// match sites — a send finding a posted receive (eager or rendezvous)
// and a receive finding a queued send — end here.
func (r *Rank) settle(post *recvPost, msg *message, arrival units.Seconds) units.Seconds {
	arrival += msg.tr.CPUCost(msg.size)
	copyPayload(post, msg)
	post.req.complete(arrival)
	if tap := r.w.cfg.Tap; tap != nil {
		tap.Message(msg.src, msg.dst, msg.tag, msg.size, msg.tr.Name, msg.sentAt, arrival)
	}
	r.wakeIfBlocked(post.owner, arrival)
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

func copyPayload(post *recvPost, msg *message) {
	if post.count != msg.count {
		panic(fmt.Sprintf("mpi: recv buffer length %d != message length %d (src %d dst %d tag %d)",
			post.count, msg.count, msg.src, msg.dst, msg.tag))
	}
	// Size-only endpoints move no data between themselves. A size-only
	// message delivers zeros, so a real receive buffer matched against
	// one is cleared to preserve the zero-payload semantics.
	switch {
	case post.buf == nil:
	case msg.data != nil:
		copy(post.buf, msg.data)
	default:
		clear(post.buf)
	}
}

// Wait blocks until every request completes, advancing the rank's clock
// to the latest completion.
func (r *Rank) Wait(reqs ...*Request) {
	r.timed(func() {
		for _, q := range reqs {
			r.waitOne(q)
		}
	})
}

func (r *Rank) waitOne(q *Request) {
	if q.owner != r {
		panic(fmt.Sprintf("mpi: rank %d waits on rank %d's request", r.id, q.owner.id))
	}
	for !q.done {
		r.waiting = true
		r.proc.Block(q.kind)
	}
	r.waiting = false
	r.idleTo(q.kind, q.completeAt)
}

// idleTo advances the rank's clock to t, reporting the jump (a wait on
// an already-completed operation whose finish time lies ahead) to the
// Tap so profilers can attribute it. Blocked waits are
// reported by the kernel's own park/wake events instead.
func (r *Rank) idleTo(tag string, t units.Seconds) {
	if tap := r.w.cfg.Tap; tap != nil && t > r.proc.Now() {
		tap.Idle(r.id, tag, r.proc.Now(), t)
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
