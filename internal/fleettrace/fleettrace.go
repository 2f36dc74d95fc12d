// Package fleettrace reconstructs a distributed run's wall-clock
// timeline from the JSONL fleet journals its processes wrote
// (-fleetlog DIR; see internal/telemetry's FleetJournal). It merges
// journals from N processes, aligns their clocks using the
// request/response edges the trace/span headers correlate, and renders
// the result three ways: a Chrome Trace Event timeline (workers as
// tracks, leases as nested spans, wire ops as events), a per-worker
// wall-clock attribution table whose categories tile each worker's
// observed span exactly (the same contract internal/profile enforces
// for virtual time), and an A-vs-B diff between two runs.
//
// Everything here is a pure function of the journal bytes: given the
// same journals, every rendering is byte-deterministic regardless of
// file discovery order.
package fleettrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Proc is one process's journal after merging: its events in sequence
// order and the clock offset that maps its timestamps onto the
// reference clock.
type Proc struct {
	// Name is the journal's process identity.
	Name string `json:"name"`
	// Events holds the process's journal records, sorted by Seq.
	Events []telemetry.FleetEvent `json:"events"`
	// OffsetNs is added to this process's timestamps to express them
	// in the reference process's clock; Edges counts the matched
	// request/response pairs behind the estimate (0 means the process
	// keeps its own clock).
	OffsetNs int64 `json:"offset_ns"`
	Edges    int   `json:"edges"`
}

// Run is a merged fleet run.
type Run struct {
	// Procs is every process that journaled, sorted by name.
	Procs []Proc `json:"procs"`
	// Reference names the process whose clock anchors the timeline
	// (the one that served requests); "" when no server journal was
	// found and all clocks are taken as-is.
	Reference string `json:"reference,omitempty"`
	// SkippedLines counts undecodable journal lines (typically the
	// torn tail a SIGKILLed worker leaves behind).
	SkippedLines int `json:"skipped_lines,omitempty"`
}

// ReadDir merges every *.fleetlog.jsonl journal under dir.
func ReadDir(dir string) (*Run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.fleetlog.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("fleettrace: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("fleettrace: no *.fleetlog.jsonl journals in %s", dir)
	}
	return ReadFiles(paths)
}

// ReadFiles merges the named journals into one aligned run. Events are
// grouped by their Proc field and ordered by Seq, so the result is
// independent of both path order and how events were split across
// files. Undecodable lines (a killed process's torn tail) are skipped
// and counted, never fatal.
func ReadFiles(paths []string) (*Run, error) {
	byProc := make(map[string][]telemetry.FleetEvent)
	skipped := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("fleettrace: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var ev telemetry.FleetEvent
			if err := json.Unmarshal(line, &ev); err != nil || ev.Proc == "" {
				skipped++
				continue
			}
			byProc[ev.Proc] = append(byProc[ev.Proc], ev)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("fleettrace: %s: %w", path, err)
		}
	}
	if len(byProc) == 0 {
		return nil, fmt.Errorf("fleettrace: journals held no events")
	}
	names := make([]string, 0, len(byProc))
	for name := range byProc {
		names = append(names, name)
	}
	sort.Strings(names)
	run := &Run{Procs: make([]Proc, 0, len(names)), SkippedLines: skipped}
	for _, name := range names {
		events := byProc[name]
		sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
		run.Procs = append(run.Procs, Proc{Name: name, Events: events})
	}
	align(run)
	return run, nil
}

// isServer reports whether a process's journal contains server-side
// request spans — the mark of the reference process.
func isServer(p *Proc) bool {
	for _, ev := range p.Events {
		if ev.Name == "serve" {
			return true
		}
	}
	return false
}

// wireCategory reports whether a span name is a wire operation for
// attribution. Everything that is not structure (lease), work
// (simulate), or pacing (backoff, held) rides the wire.
func wireCategory(name string) bool {
	switch name {
	case "lease", "simulate", "backoff", "held", "serve", "requeue":
		return false
	}
	return true
}

// Summary is a one-line description for logs.
func (r *Run) Summary() string {
	events := 0
	for i := range r.Procs {
		events += len(r.Procs[i].Events)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d processes, %d events", len(r.Procs), events)
	if r.Reference != "" {
		fmt.Fprintf(&b, ", clocks aligned to %s", r.Reference)
	}
	if r.SkippedLines > 0 {
		fmt.Fprintf(&b, ", %d torn lines skipped", r.SkippedLines)
	}
	return b.String()
}
