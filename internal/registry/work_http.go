package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Wire shapes for the /v1/work lease API:
//
//	GET  /v1/work            → 200 WorkStatus | 404
//	POST /v1/work/claim      → 200 wireClaim  | 404 | 409 (may be held)
//	POST /v1/work/heartbeat  → 200 | 404 | 410
//	POST /v1/work/complete   → 200 | 404 | 410
//
// 404 with code "no-coordinator" means the server has no work queue
// (it was started as a plain cache, not a sweep coordinator). 410 with
// code "lease-gone" means the named lease was revoked or already
// settled; the worker must abandon the batch's remaining cells.
//
// A claim that finds every batch leased out is held open until a
// completion or an expiry lets it answer a lease or "done", or until
// the hold ends (the earliest live lease deadline, or
// min(heartbeat, 10 s)) and it answers "wait". The coordinator paces
// idle workers this way: a worker told to wait claims again at once.

// wireClaimRequest is the body of POST /v1/work/claim.
type wireClaimRequest struct {
	// Worker is a display name for logs and lease attribution.
	Worker string `json:"worker"`
}

// wireClaim answers a claim: a granted lease, "wait" (work is all
// leased out but may yet requeue; claim again), or "done" (every cell
// committed; the worker should exit). HeldMillis is how long the
// coordinator held the claim before answering, so the worker can
// journal that part of the round trip as idle rather than wire time.
type wireClaim struct {
	Status     string     `json:"status"` // "lease" | "wait" | "done"
	HeldMillis int64      `json:"held_ms,omitempty"`
	Lease      *wireLease `json:"lease,omitempty"`
}

// wireLease is one granted lease on the wire.
type wireLease struct {
	ID              string     `json:"id"`
	Study           string     `json:"study"`
	Stamp           string     `json:"stamp"`
	Cells           []WorkCell `json:"cells"`
	TTLMillis       int64      `json:"ttl_ms"`
	HeartbeatMillis int64      `json:"heartbeat_ms"`
}

// wireLeaseRequest is the body of POST /v1/work/heartbeat and
// /v1/work/complete.
type wireLeaseRequest struct {
	Lease string `json:"lease"`
	// Failed marks a completion where some cell errored mid-batch; the
	// coordinator re-checks the batch against the store and requeues
	// only what never committed.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress, on heartbeats, is the worker's cumulative progress and
	// attribution summary; the coordinator folds it into the fleet view
	// served on GET /v1/status.
	Progress *WorkerProgress `json:"progress,omitempty"`
}

// requireWork rejects work-API requests on a server with no queue.
func (s *Server) requireWork(w http.ResponseWriter) bool {
	if s.opt.Work != nil {
		return false
	}
	writeJSON(w, http.StatusNotFound, wireError{
		Code:  codeNoWork,
		Error: "this registry is not coordinating a sweep (start it with a work queue)",
	})
	return true
}

// noteWorkEvents folds one operation's lazy-expiry fallout into the
// metrics registry.
func (s *Server) noteWorkEvents(ev workEvents) {
	if ev.expired > 0 {
		s.metrics.Counter("registry_work_leases_total", "Lease lifecycle events.",
			telemetry.L("event", "expired")).Add(float64(ev.expired))
	}
	if ev.requeuedCells > 0 {
		s.metrics.Counter("registry_work_requeued_cells_total", "Cells returned to the queue by lease expiry or failure.").
			Add(float64(ev.requeuedCells))
	}
}

// noteLease counts one lease lifecycle event.
func (s *Server) noteLease(event string) {
	s.metrics.Counter("registry_work_leases_total", "Lease lifecycle events.",
		telemetry.L("event", event)).Inc()
}

// refreshWorkGauges snapshots the queue into the progress gauges.
func (s *Server) refreshWorkGauges() {
	st, ev := s.opt.Work.Status()
	s.noteWorkEvents(ev)
	s.metrics.Gauge("registry_work_pending_cells", "Cells waiting in unleased batches.").Set(float64(st.PendingCells))
	s.metrics.Gauge("registry_work_active_leases", "Leases currently live.").Set(float64(st.ActiveLeases))
	s.metrics.Gauge("registry_work_done_cells", "Cells committed so far.").Set(float64(st.DoneCells))
}

func (s *Server) handleWorkStatus(w http.ResponseWriter, r *http.Request) {
	if s.requireWork(w) {
		return
	}
	st, ev := s.opt.Work.Status()
	s.noteWorkEvents(ev)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleWorkClaim(w http.ResponseWriter, r *http.Request) {
	if s.requireWork(w) || s.rejectSchema(w, r) {
		return
	}
	var req wireClaimRequest
	if !decodeWorkBody(w, r, "claim", &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = r.RemoteAddr
	}
	lease, done, held := s.holdClaim(r.Context(), req.Worker, r.Header.Get(headerSpan))
	defer s.refreshWorkGauges()
	answer := wireClaim{Status: "wait", HeldMillis: held.Milliseconds()}
	switch {
	case done:
		answer.Status = "done"
	case lease != nil:
		s.noteLease("granted")
		answer.Status = "lease"
		answer.Lease = &wireLease{
			ID:              lease.ID,
			Study:           lease.Study,
			Stamp:           lease.Stamp,
			Cells:           lease.Cells,
			TTLMillis:       lease.TTL.Milliseconds(),
			HeartbeatMillis: lease.Heartbeat.Milliseconds(),
		}
	}
	writeJSON(w, http.StatusOK, answer)
}

// holdClaim claims for a worker, holding on while every batch is
// leased out: each lease settlement re-runs the claim, and the hold
// ends at the bound the first claim returned (the earliest live lease
// deadline, or min(heartbeat, 10 s)) with one last claim, or as soon
// as ctx ends — the client went away or Serve began shutting down.
// It returns the lease, done, and how long the claim was held; a nil
// lease with done=false means "wait".
func (s *Server) holdClaim(ctx context.Context, worker, origin string) (*WorkLease, bool, time.Duration) {
	q := s.opt.Work
	var start time.Time
	since := func() time.Duration {
		if start.IsZero() {
			return 0
		}
		//lint:allow wallclock -- hold time feeds the worker's fleet journal; no simulated quantity depends on it
		return time.Since(start)
	}
	var bound <-chan time.Time
	last := false
	for {
		changed := q.changes()
		lease, wait, done, ev := q.ClaimFrom(worker, origin)
		s.noteWorkEvents(ev)
		if lease != nil || done || last {
			return lease, done, since()
		}
		if bound == nil {
			//lint:allow wallclock -- claim holds pace idle workers on the real clock; cell results are content-addressed
			t := time.NewTimer(wait)
			defer t.Stop()
			//lint:allow wallclock -- claim holds pace idle workers on the real clock; cell results are content-addressed
			start, bound = time.Now(), t.C
		}
		select {
		case <-changed:
		case <-bound:
			last = true
		case <-ctx.Done():
			return nil, false, since()
		}
	}
}

// maxWorkBodyBytes bounds a claim/heartbeat/complete body: a lease id
// plus a WorkerProgress is under a kilobyte.
const maxWorkBodyBytes = 1 << 20

// decodeWorkBody decodes a work-API request body into req, reading at
// most maxWorkBodyBytes of it — like PUT /v1/cells, a peer cannot make
// the server buffer without bound. It answers 413 or 400 itself and
// reports whether req is usable.
func decodeWorkBody(w http.ResponseWriter, r *http.Request, what string, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkBodyBytes)).Decode(req)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, wireError{
			Code:  codeTooLarge,
			Error: fmt.Sprintf("%s exceeds the %d-byte limit", what, maxWorkBodyBytes),
		})
		return false
	}
	writeJSON(w, http.StatusBadRequest, wireError{Code: codeBadRecord, Error: "undecodable " + what + ": " + err.Error()})
	return false
}

// decodeLeaseRequest reads a heartbeat/complete body, rejecting blanks.
func decodeLeaseRequest(w http.ResponseWriter, r *http.Request) (wireLeaseRequest, bool) {
	var req wireLeaseRequest
	if !decodeWorkBody(w, r, "lease request", &req) {
		return req, false
	}
	if req.Lease == "" {
		writeJSON(w, http.StatusBadRequest, wireError{Code: codeBadRecord, Error: "missing lease id"})
		return req, false
	}
	return req, true
}

func (s *Server) handleWorkHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.requireWork(w) || s.rejectSchema(w, r) {
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	worker, alive, ev := s.opt.Work.HeartbeatFrom(req.Lease, req.Progress, r.Header.Get(headerSpan))
	s.noteWorkEvents(ev)
	result := "ok"
	if !alive {
		result = "gone"
	}
	s.metrics.Counter("registry_work_heartbeats_total", "Heartbeats by outcome.",
		telemetry.L("result", result)).Inc()
	if alive && req.Progress != nil {
		s.noteWorkerProgress(worker, *req.Progress)
	}
	if !alive {
		writeJSON(w, http.StatusGone, wireError{
			Code:  codeLeaseGone,
			Error: fmt.Sprintf("lease %s expired or already settled; abandon its remaining cells", req.Lease),
		})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	if s.requireWork(w) || s.rejectSchema(w, r) {
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	worker, settled, ev := s.opt.Work.CompleteFrom(req.Lease, req.Failed, req.Progress, r.Header.Get(headerSpan))
	s.noteWorkEvents(ev)
	defer s.refreshWorkGauges()
	if settled && req.Progress != nil {
		s.noteWorkerProgress(worker, *req.Progress)
	}
	if !settled {
		s.noteLease("lost")
		writeJSON(w, http.StatusGone, wireError{
			Code:  codeLeaseGone,
			Error: fmt.Sprintf("lease %s expired before completion; its committed cells are kept", req.Lease),
		})
		return
	}
	if req.Failed {
		s.noteLease("failed")
		if req.Error != "" {
			s.logf("registry: lease %s reported failure: %s", req.Lease, req.Error)
		}
	} else {
		s.noteLease("completed")
	}
	writeJSON(w, http.StatusOK, struct{}{})
}
