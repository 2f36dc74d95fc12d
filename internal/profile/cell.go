package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/units"
	"repro/internal/vtime"
)

// CellProfile is one cell's complete time attribution: per-rank and
// cell-total category breakdowns, per-collective phase totals, folded
// stacks for flamegraph tools, and the critical path through the
// happens-before graph. It is a wire type (written as
// <key>.profile.json beside the cell's Chrome trace) and is registered
// in the repolint WireRoots.
type CellProfile struct {
	// Label is the cell's display name; Key its content fingerprint.
	Label string `json:"label"`
	Key   string `json:"key"`
	Ranks int    `json:"ranks"`
	// Makespan is the cell's simulated end time (max rank finish).
	Makespan units.Seconds `json:"makespan"`
	// Totals sums the per-rank breakdowns.
	Totals Breakdown `json:"totals"`
	// PerRank holds one breakdown per rank, indexed by rank id.
	PerRank []Breakdown `json:"perRank"`
	// Phases aggregates outermost collective spans by name, sorted.
	Phases []PhaseStat `json:"phases"`
	// Folded holds flamegraph folded-stack entries, sorted by stack.
	Folded []FoldedEntry `json:"folded"`
	// Path is the critical path ending at the makespan.
	Path PathReport `json:"criticalPath"`
}

// Breakdown attributes one rank's (or the whole cell's) virtual time.
// Compute is defined as Total minus the two wait categories, so the
// three categories sum to Total by construction; Build validates the
// underlying wait partition exactly.
type Breakdown struct {
	Total          units.Seconds `json:"total"`
	Compute        units.Seconds `json:"compute"`
	P2PWait        units.Seconds `json:"p2pWait"`
	CollectiveWait units.Seconds `json:"collectiveWait"`
}

// add folds o into b (for cell totals).
func (b *Breakdown) add(o Breakdown) {
	b.Total += o.Total
	b.Compute += o.Compute
	b.P2PWait += o.P2PWait
	b.CollectiveWait += o.CollectiveWait
}

// PhaseStat aggregates one collective across all ranks: how many
// outermost spans ran, their total duration, and how much of that
// duration ranks spent blocked.
type PhaseStat struct {
	Name string `json:"name"`
	// Count is the number of outermost spans (ranks × calls).
	Count int `json:"count"`
	// Seconds is the total span time summed over ranks.
	Seconds units.Seconds `json:"seconds"`
	// Wait is the blocked/idle time inside those spans.
	Wait units.Seconds `json:"wait"`
}

// FoldedEntry is one flamegraph folded-stack line: ";"-separated
// frames and a weight in integer virtual nanoseconds.
type FoldedEntry struct {
	Stack string `json:"stack"`
	Nanos int64  `json:"nanos"`
}

// Build folds a cell's log into its attribution. rankEnd is each rank's
// final virtual clock (mpi.Stats.RankEnd); its length fixes the rank
// count. Build is the log's last reader: it drains the log, releasing
// each chunk once folded. It validates the event stream: every event
// names a rank of the world, no rank is still parked or inside a phase
// at the end, wait intervals are monotone and within [0, end] — a
// violated invariant is an error, never a silently wrong report.
func Build(label, key string, log *vtime.Log, rankEnd []units.Seconds) (*CellProfile, error) {
	n := len(rankEnd)
	if n == 0 {
		return nil, fmt.Errorf("profile: no ranks")
	}
	r := &recorder{
		log:        log,
		ranks:      make([]rankRec, n),
		paths:      []string{""},
		pathOf:     make(map[phaseStep]int32),
		phaseTime:  make(map[string]units.Seconds),
		phaseCount: make(map[string]int),
	}
	for e := range log.Drain() {
		if err := r.event(e); err != nil {
			return nil, err
		}
	}
	p := &CellProfile{Label: label, Key: key, Ranks: n, PerRank: make([]Breakdown, n)}
	for _, end := range rankEnd {
		if end > p.Makespan {
			p.Makespan = end
		}
	}

	folded := make(map[string]units.Seconds)
	phaseWait := make(map[string]units.Seconds)
	for id := range r.ranks {
		rec := &r.ranks[id]
		if rec.parked {
			return nil, fmt.Errorf("profile: rank %d still parked on %q at end of run", id, log.Name(rec.parkTag))
		}
		if len(rec.stack) > 0 {
			return nil, fmt.Errorf("profile: rank %d still inside phase %q at end of run", id, log.Name(rec.stack[len(rec.stack)-1].name))
		}
		end := rankEnd[id]
		b := Breakdown{Total: end}
		prev := units.Seconds(0)
		for _, w := range rec.waits {
			if w.from < prev || w.to < w.from || w.to > end {
				return nil, fmt.Errorf("profile: rank %d wait [%v,%v] breaks the timeline partition (prev end %v, rank end %v)",
					id, w.from, w.to, prev, end)
			}
			prev = w.to
			dur := w.to - w.from
			tag, phase := log.Name(w.tag), r.paths[w.phase]
			if phase != "" {
				b.CollectiveWait += dur
				name, _, _ := strings.Cut(phase, ";")
				phaseWait[name] += dur
			} else {
				b.P2PWait += dur
			}
			folded[foldedStack(id, phase, tag)] += dur
		}
		b.Compute = b.Total - b.P2PWait - b.CollectiveWait
		if b.Compute < 0 {
			return nil, fmt.Errorf("profile: rank %d waits exceed its total time by %v", id, -b.Compute)
		}
		folded[fmt.Sprintf("rank %d;compute", id)] += b.Compute
		p.PerRank[id] = b
		p.Totals.add(b)
	}

	names := make([]string, 0, len(r.phaseTime))
	for name := range r.phaseTime {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.Phases = append(p.Phases, PhaseStat{
			Name:    name,
			Count:   r.phaseCount[name],
			Seconds: r.phaseTime[name],
			Wait:    phaseWait[name],
		})
	}

	stacks := make([]string, 0, len(folded))
	for s := range folded {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	for _, s := range stacks {
		p.Folded = append(p.Folded, FoldedEntry{Stack: s, Nanos: nanos(folded[s])})
	}

	path, err := r.criticalPath(rankEnd, p.Makespan)
	if err != nil {
		return nil, err
	}
	p.Path = path
	return p, nil
}

// foldedStack builds the frame path for a wait: rank, enclosing
// collective spans, then the wait tag.
func foldedStack(rank int, phase, tag string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rank %d", rank)
	if phase != "" {
		sb.WriteByte(';')
		sb.WriteString(phase)
	}
	sb.WriteByte(';')
	sb.WriteString(tag)
	return sb.String()
}

// nanos converts virtual seconds to the integer nanosecond weights
// folded-stack tools expect.
func nanos(s units.Seconds) int64 {
	// The conversion rounds the product: no GOARCH may fuse it.
	return int64(float64(float64(s)*1e9) + 0.5)
}

// WriteFile writes the profile into dir as <key>.profile.json,
// creating dir if needed. Output is byte-deterministic: one
// json.Marshal of a fixed-order struct.
func (p *CellProfile) WriteFile(dir string) error {
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	path := filepath.Join(dir, p.Key+".profile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

// ReadFile loads one profile written by WriteFile.
func ReadFile(path string) (*CellProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var p CellProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	return &p, nil
}

// ReadDir loads every *.profile.json in dir, sorted by cell label then
// key so reports render in a stable order.
func ReadDir(dir string) ([]*CellProfile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var out []*CellProfile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".profile.json") {
			continue
		}
		p, err := ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("profile: no *.profile.json files in %s (run with -trace %s first)", dir, dir)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}
