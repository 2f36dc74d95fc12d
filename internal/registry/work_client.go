package registry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Client side of the /v1/work lease API. These methods speak to a
// coordinator through the same do() path as record traffic, so they
// inherit the schema header, retry-with-backoff, and jitter — a
// coordinator restart looks like any transient outage until the
// retries run out.

// WorkClaim is the decoded answer to a claim: Done, a Lease, or
// neither — a wait: all work is leased out and the coordinator already
// held the claim as long as it usefully could, so claim again at once.
type WorkClaim struct {
	// Done reports sweep completion: every cell committed, the worker
	// should exit.
	Done bool
	// Lease is the granted batch, nil when Done or waiting.
	Lease *WorkLease
}

// errNotCoordinator decodes a work-API 404 into a friendly error.
func errNotCoordinator(base string, data []byte) error {
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Code == codeNoWork {
		return fmt.Errorf("registry: %s is not coordinating a sweep (start the server with -sweep)", base)
	}
	return fmt.Errorf("registry: %s does not speak the work API (HTTP 404)", base)
}

// ClaimWork asks the coordinator for the next batch.
func (c *Client) ClaimWork(worker string) (WorkClaim, error) {
	body, err := json.Marshal(wireClaimRequest{Worker: worker})
	if err != nil {
		return WorkClaim{}, fmt.Errorf("registry: %w", err)
	}
	status, data, err := c.do(http.MethodPost, "/v1/work/claim", body)
	if err != nil {
		return WorkClaim{}, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusNotFound:
		return WorkClaim{}, errNotCoordinator(c.base, data)
	case http.StatusConflict:
		return WorkClaim{}, mismatchFrom(data)
	default:
		return WorkClaim{}, fmt.Errorf("registry: POST /v1/work/claim: HTTP %d", status)
	}
	var wc wireClaim
	if err := json.Unmarshal(data, &wc); err != nil {
		return WorkClaim{}, fmt.Errorf("registry: undecodable claim response: %w", err)
	}
	if wc.HeldMillis > 0 {
		// The coordinator's hold is idle time inside the claim's wire
		// span; its own span lets fleetlog attribute it so.
		end := c.journal.Now()
		c.journal.Emit(telemetry.FleetEvent{
			Kind: telemetry.FleetSpan, Name: "held",
			StartNs: end - wc.HeldMillis*int64(time.Millisecond), EndNs: end,
			Outcome: wc.Status, Label: "claim",
		})
	}
	switch wc.Status {
	case "done":
		return WorkClaim{Done: true}, nil
	case "wait":
		return WorkClaim{}, nil
	case "lease":
		if wc.Lease == nil {
			return WorkClaim{}, fmt.Errorf("registry: claim granted a lease without a body")
		}
		return WorkClaim{Lease: &WorkLease{
			ID:        wc.Lease.ID,
			Study:     wc.Lease.Study,
			Stamp:     wc.Lease.Stamp,
			Cells:     wc.Lease.Cells,
			TTL:       time.Duration(wc.Lease.TTLMillis) * time.Millisecond,
			Heartbeat: time.Duration(wc.Lease.HeartbeatMillis) * time.Millisecond,
		}}, nil
	default:
		return WorkClaim{}, fmt.Errorf("registry: claim status %q", wc.Status)
	}
}

// leasePost sends one heartbeat/complete request. alive=false means
// the lease is gone (410): the worker must abandon the batch's
// remaining cells — its committed ones are durable either way.
func (c *Client) leasePost(path string, req wireLeaseRequest) (alive bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, fmt.Errorf("registry: %w", err)
	}
	status, data, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusOK:
		return true, nil
	case http.StatusGone:
		return false, nil
	case http.StatusNotFound:
		return false, errNotCoordinator(c.base, data)
	case http.StatusConflict:
		return false, mismatchFrom(data)
	default:
		return false, fmt.Errorf("registry: POST %s: HTTP %d", path, status)
	}
}

// HeartbeatWork renews a lease, optionally reporting the worker's
// cumulative progress summary (nil sends a plain renewal).
// alive=false: the lease was revoked.
func (c *Client) HeartbeatWork(leaseID string, progress *WorkerProgress) (alive bool, err error) {
	return c.leasePost("/v1/work/heartbeat", wireLeaseRequest{Lease: leaseID, Progress: progress})
}

// CompleteWork settles a lease; failed marks a batch where some cell
// errored (the coordinator requeues only what never committed), and
// progress, when non-nil, delivers the worker's final summary for the
// batch — fast batches settle before their first heartbeat, and the
// fleet view must still see the work. ok=false: the lease had already
// been revoked.
func (c *Client) CompleteWork(leaseID string, failed bool, errMsg string, progress *WorkerProgress) (ok bool, err error) {
	return c.leasePost("/v1/work/complete", wireLeaseRequest{Lease: leaseID, Failed: failed, Error: errMsg, Progress: progress})
}

// FetchWorkStatus reads the coordinator's progress snapshot.
func (c *Client) FetchWorkStatus() (WorkStatus, error) {
	status, data, err := c.do(http.MethodGet, "/v1/work", nil)
	if err != nil {
		return WorkStatus{}, err
	}
	if status == http.StatusNotFound {
		return WorkStatus{}, errNotCoordinator(c.base, data)
	}
	if status != http.StatusOK {
		return WorkStatus{}, fmt.Errorf("registry: GET /v1/work: HTTP %d", status)
	}
	var st WorkStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return WorkStatus{}, fmt.Errorf("registry: undecodable work status: %w", err)
	}
	return st, nil
}
