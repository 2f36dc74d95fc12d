package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// WorkerOptions tunes one coordinated-sweep worker.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs and lease
	// attribution.
	Name string
	// Stamp is this worker's own enumeration fingerprint (WorkStamp
	// over the study it was invoked with). A lease stamped differently
	// means coordinator and worker were started with different studies
	// or flags; the worker refuses rather than simulate cells it would
	// misattribute.
	Stamp string
	// Run computes and commits one cell. It must be idempotent (the
	// store is content-addressed) and should commit failures as
	// negative records before returning the error.
	Run func(WorkCell) error
	// Parallel bounds concurrent cells within a batch. Default 1.
	Parallel int
	// Logf, when non-nil, receives one line per lease event.
	Logf func(format string, args ...any)
	// Progress, when non-nil, is polled at every heartbeat; the
	// snapshot rides to the coordinator, which serves it on
	// GET /v1/status. Must be safe to call concurrently with Run.
	Progress func() WorkerProgress
	// Journal, when non-nil, records this worker's view of each lease
	// as a wall-clock span (claim success to settle) and each cell as a
	// nested "simulate" span, so fleetlog can attribute the worker's
	// wall time between simulation, wire waits, and idling.
	Journal *telemetry.FleetJournal
}

// WorkerReport summarises one worker's run.
type WorkerReport struct {
	// Batches counts leases settled (completed or failed); Cells the
	// cells this worker ran to completion; Failures the cells whose
	// Run returned an error.
	Batches  int
	Cells    int
	Failures int
	// LeasesLost counts leases revoked under this worker (missed
	// heartbeats — a coordinator outage, a long stall). Lost leases
	// abandon their remaining cells; whatever this worker had already
	// committed stays durable, and another worker finishes the rest.
	LeasesLost int
}

// RunWorker drains a coordinator's work queue: claim a lease, heartbeat
// it in the background, run its cells, settle it, repeat until the
// coordinator reports the sweep done. While peers hold every lease the
// coordinator holds the claim open and answers the moment a lease
// settles, so a "wait" answer is re-claimed at once: the coordinator,
// not the worker, paces an idle worker. Failure semantics:
//
//   - A cell error does not abort the batch — remaining cells still
//     run, then the lease completes as failed and the coordinator
//     requeues exactly the cells that never committed.
//   - A lost lease (heartbeat answered 410, or heartbeats failing on
//     transport errors past the client's retry budget) abandons the
//     batch's remaining cells without completing it; the coordinator
//     re-issues them. Already-committed cells are never recomputed.
//   - A claim or completion that fails even after retries ends the run
//     with an error whose message notes that committed work is durable
//     and the same invocation resumes the sweep.
func RunWorker(c *Client, opt WorkerOptions) (WorkerReport, error) {
	if opt.Run == nil {
		return WorkerReport{}, fmt.Errorf("registry: worker needs a Run callback")
	}
	if opt.Parallel <= 0 {
		opt.Parallel = 1
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep WorkerReport
	for {
		claim, err := c.ClaimWork(opt.Name)
		if err != nil {
			return rep, resumable(fmt.Errorf("claiming work: %w", err))
		}
		switch {
		case claim.Done:
			logf("worker %s: sweep complete (%d batches, %d cells, %d failures, %d leases lost)",
				opt.Name, rep.Batches, rep.Cells, rep.Failures, rep.LeasesLost)
			return rep, nil
		case claim.Lease == nil:
			logf("worker %s: all work leased out; claiming again", opt.Name)
			continue
		}
		lease := claim.Lease
		if opt.Stamp != "" && lease.Stamp != opt.Stamp {
			return rep, fmt.Errorf("registry: coordinator is sweeping %s (stamp %s) but this worker enumerated stamp %s — start both with the same study and flags",
				lease.Study, lease.Stamp, opt.Stamp)
		}
		logf("worker %s: lease %s: %d cells", opt.Name, lease.ID, len(lease.Cells))
		leaseSpan, leaseStart := opt.Journal.NewSpan(), opt.Journal.Now()
		settleLease := func(outcome string) {
			opt.Journal.Emit(telemetry.FleetEvent{
				Kind: telemetry.FleetSpan, Name: "lease", Span: leaseSpan,
				StartNs: leaseStart, EndNs: opt.Journal.Now(),
				Outcome: outcome, Label: lease.ID,
				Detail: fmt.Sprintf("%d cells", len(lease.Cells)),
			})
		}
		cells, failures, lost := runLease(c, lease, opt, logf, leaseSpan)
		rep.Cells += cells
		rep.Failures += failures
		if lost {
			rep.LeasesLost++
			settleLease("lost")
			logf("worker %s: lease %s lost; abandoning its remaining cells (committed work is kept)", opt.Name, lease.ID)
			continue
		}
		var progress *WorkerProgress
		if opt.Progress != nil {
			p := opt.Progress()
			progress = &p
		}
		ok, err := c.CompleteWork(lease.ID, failures > 0, completionNote(failures), progress)
		if err != nil {
			settleLease("lost")
			return rep, resumable(fmt.Errorf("completing lease %s: %w", lease.ID, err))
		}
		if !ok {
			// Expired between the last heartbeat and completion: the
			// coordinator already requeued whatever we had not committed.
			rep.LeasesLost++
			settleLease("lost")
			logf("worker %s: lease %s expired before completion", opt.Name, lease.ID)
			continue
		}
		rep.Batches++
		if failures > 0 {
			settleLease("failed")
		} else {
			settleLease("ok")
		}
	}
}

// resumable annotates a fatal worker error with the recovery story.
func resumable(err error) error {
	return fmt.Errorf("registry: worker stopping: %w (committed cells are durable; rerun the same command to resume the sweep)", err)
}

func completionNote(failures int) string {
	if failures == 0 {
		return ""
	}
	return fmt.Sprintf("%d cells failed (negative records committed)", failures)
}

// runLease heartbeats one lease in the background while its cells run
// on a bounded pool. Returns the number of cells run, how many failed,
// and whether the lease was lost mid-batch.
func runLease(c *Client, lease *WorkLease, opt WorkerOptions, logf func(string, ...any), leaseSpan string) (cells, failures int, lost bool) {
	var gone atomic.Bool
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		interval := lease.Heartbeat
		if interval <= 0 {
			interval = time.Second
		}
		//lint:allow wallclock -- heartbeat cadence is lease renewal on the real clock, invisible to simulated results
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var progress *WorkerProgress
				if opt.Progress != nil {
					p := opt.Progress()
					progress = &p
				}
				alive, err := c.HeartbeatWork(lease.ID, progress)
				if err != nil {
					// Transport dead past the retry budget: assume revoked.
					logf("worker %s: lease %s heartbeat failed: %v", opt.Name, lease.ID, err)
					gone.Store(true)
					return
				}
				if !alive {
					gone.Store(true)
					return
				}
			}
		}
	}()

	var mu sync.Mutex
	sem := make(chan struct{}, opt.Parallel)
	var run sync.WaitGroup
	for _, cell := range lease.Cells {
		if gone.Load() {
			break
		}
		sem <- struct{}{}
		run.Add(1)
		go func(cell WorkCell) {
			defer run.Done()
			defer func() { <-sem }()
			cellSpan, cellStart := opt.Journal.NewSpan(), opt.Journal.Now()
			err := opt.Run(cell)
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			opt.Journal.Emit(telemetry.FleetEvent{
				Kind: telemetry.FleetSpan, Name: "simulate", Span: cellSpan, Parent: leaseSpan,
				StartNs: cellStart, EndNs: opt.Journal.Now(),
				Outcome: outcome, Label: cell.Label, Detail: cell.Key,
			})
			mu.Lock()
			cells++
			if err != nil {
				failures++
				logf("worker %s: cell %s failed: %v", opt.Name, cell.Label, err)
			}
			mu.Unlock()
		}(cell)
	}
	run.Wait()
	close(stop)
	hb.Wait()
	return cells, failures, gone.Load()
}
