package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleettrace"
	"repro/internal/resultdb"
	"repro/internal/telemetry"
)

// decodeJournal parses a journal buffer back into events.
func decodeJournal(t *testing.T, buf *bytes.Buffer) []telemetry.FleetEvent {
	t.Helper()
	var out []telemetry.FleetEvent
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var ev telemetry.FleetEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line undecodable: %v\n%s", err, line)
		}
		out = append(out, ev)
	}
	return out
}

// findEvent returns the first event matching pred, failing if none.
func findEvent(t *testing.T, events []telemetry.FleetEvent, what string, pred func(telemetry.FleetEvent) bool) telemetry.FleetEvent {
	t.Helper()
	for _, ev := range events {
		if pred(ev) {
			return ev
		}
	}
	t.Fatalf("no %s event in journal: %+v", what, events)
	return telemetry.FleetEvent{}
}

// TestTraceIDPropagation drives one claim→complete lease over the real
// wire and follows the trace/span ids end to end: the client journals
// the claim attempt under a span id, the server's serve span parents on
// that id and carries the client's trace identity, the access log shows
// both, and the coordinator's lease span parents on the claiming
// request — the linkage fleetlog reconstruction relies on.
func TestTraceIDPropagation(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var srvBuf, cliBuf bytes.Buffer
	srvJournal := telemetry.NewFleetJournal(&srvBuf, "coordinator", nil)
	cliJournal := telemetry.NewFleetJournal(&cliBuf, "w1", nil)
	clock := newFakeClock()
	q := NewWorkQueue(cellsNamed("g", "k1", "k2"), QueueOptions{
		Study: "t", BatchSize: 2, Clock: clock.Now, Journal: srvJournal,
	})
	var logMu sync.Mutex
	var logs []string
	ts := httptest.NewServer(NewServer(store, ServerOptions{
		Work: q, Journal: srvJournal,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	}))
	defer ts.Close()
	c, err := Dial(ts.URL, ClientOptions{Journal: cliJournal})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wc, err := c.ClaimWork("w1")
	if err != nil || wc.Lease == nil {
		t.Fatalf("claim: %+v err=%v", wc, err)
	}
	if ok, err := c.CompleteWork(wc.Lease.ID, false, "", nil); !ok || err != nil {
		t.Fatalf("complete: ok=%v err=%v", ok, err)
	}

	cli := decodeJournal(t, &cliBuf)
	srv := decodeJournal(t, &srvBuf)

	// The client journaled the claim attempt under a w1-scoped span id.
	claim := findEvent(t, cli, "claim", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "claim" && ev.Outcome == "ok"
	})
	if !strings.HasPrefix(claim.Span, "w1#") {
		t.Fatalf("claim span id %q does not carry the process identity", claim.Span)
	}

	// The server's serve span parents on that exact span and records the
	// propagated trace identity.
	serve := findEvent(t, srv, "serve for the claim", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "serve" && ev.Parent == claim.Span
	})
	if serve.Trace != "w1" {
		t.Fatalf("serve trace = %q, want w1 (propagated X-Hpc-Trace)", serve.Trace)
	}

	// The access log shows the propagated pair for the claim request.
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "[w1/"+claim.Span+"]") {
		t.Fatalf("access log lacks the trace/span pair [w1/%s]:\n%s", claim.Span, joined)
	}

	// The coordinator's lease span covers grant→completion, parents on
	// the claiming request's span, and carries the worker identity.
	lease := findEvent(t, srv, "lease", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "lease"
	})
	if lease.Span != wc.Lease.ID || lease.Parent != claim.Span {
		t.Fatalf("lease span %q parent %q, want span %q parent %q",
			lease.Span, lease.Parent, wc.Lease.ID, claim.Span)
	}
	if lease.Outcome != "completed" || lease.Label != "w1" {
		t.Fatalf("lease settled as %q for %q, want completed for w1", lease.Outcome, lease.Label)
	}

	// The complete attempt, too, crossed the wire under its own span.
	complete := findEvent(t, cli, "complete", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "complete" && ev.Outcome == "ok"
	})
	findEvent(t, srv, "serve for the complete", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "serve" && ev.Parent == complete.Span
	})
}

// TestLeaseExpiryJournalsOrphanAndRequeue: a SIGKILLed worker's lease
// expires during a later request's lazy sweep; the journal must link
// the orphaned lease span to the triggering request (the successor),
// which is exactly how fleetlog reconstruction attributes a requeue.
func TestLeaseExpiryJournalsOrphanAndRequeue(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var srvBuf bytes.Buffer
	srvJournal := telemetry.NewFleetJournal(&srvBuf, "coordinator", nil)
	clock := newFakeClock()
	q := NewWorkQueue(cellsNamed("g", "k1", "k2"), QueueOptions{
		Study: "t", BatchSize: 2, LeaseTTL: time.Minute, Clock: clock.Now, Journal: srvJournal,
	})
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q, Journal: srvJournal}))
	defer ts.Close()
	var cliBuf bytes.Buffer
	c, err := Dial(ts.URL, ClientOptions{Journal: telemetry.NewFleetJournal(&cliBuf, "doomed", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wc, err := c.ClaimWork("doomed")
	if err != nil || wc.Lease == nil {
		t.Fatalf("claim: %+v err=%v", wc, err)
	}
	// The worker dies silently; a successor's claim two TTLs later
	// sweeps the lease.
	clock.Advance(2 * time.Minute)
	var succBuf bytes.Buffer
	c2, err := Dial(ts.URL, ClientOptions{Journal: telemetry.NewFleetJournal(&succBuf, "succ", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	wc2, err := c2.ClaimWork("succ")
	if err != nil || wc2.Lease == nil {
		t.Fatalf("successor claim: %+v err=%v", wc2, err)
	}

	srv := decodeJournal(t, &srvBuf)
	succ := decodeJournal(t, &succBuf)
	succClaim := findEvent(t, succ, "successor claim", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "claim" && ev.Outcome == "ok"
	})
	orphan := findEvent(t, srv, "expired lease", func(ev telemetry.FleetEvent) bool {
		return ev.Name == "lease" && ev.Outcome == "expired"
	})
	if orphan.Span != wc.Lease.ID || orphan.Label != "doomed" {
		t.Fatalf("orphaned lease span = %+v, want lease %s for doomed", orphan, wc.Lease.ID)
	}
	requeue := findEvent(t, srv, "requeue", func(ev telemetry.FleetEvent) bool {
		return ev.Kind == telemetry.FleetPoint && ev.Name == "requeue"
	})
	if requeue.Label != wc.Lease.ID {
		t.Fatalf("requeue names lease %q, want %s", requeue.Label, wc.Lease.ID)
	}
	if requeue.Parent != succClaim.Span {
		t.Fatalf("requeue parent = %q, want the triggering claim %q (orphan → successor link)",
			requeue.Parent, succClaim.Span)
	}
}

// TestHeldClaimAttributedIdle: the part of a claim's round trip the
// coordinator spent holding it is idle in the worker's attribution, not
// wire time.
func TestHeldClaimAttributedIdle(t *testing.T) {
	const heartbeat = 200 * time.Millisecond
	q := NewWorkQueue(cellsNamed("g", "c1"), QueueOptions{
		Study: "t", BatchSize: 1, LeaseTTL: time.Minute, Heartbeat: heartbeat,
	})
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q}))
	defer ts.Close()
	var buf bytes.Buffer
	c, err := Dial(ts.URL, ClientOptions{Journal: telemetry.NewFleetJournal(&buf, "w2", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q.Claim("w1") // live, so w2's claim is held to the heartbeat bound
	if wc, err := c.ClaimWork("w2"); err != nil || wc.Done || wc.Lease != nil {
		t.Fatalf("claim: %+v err=%v, want wait", wc, err)
	}
	run := &fleettrace.Run{Procs: []fleettrace.Proc{{Name: "w2", Events: decodeJournal(t, &buf)}}}
	attrs, err := run.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	a := attrs[0]
	if a.IdleNs < heartbeat.Nanoseconds() || a.WireNs > (20*time.Millisecond).Nanoseconds() {
		t.Fatalf("attribution %+v, want ≥ %v idle and about 0 wire", a, heartbeat)
	}
}
