package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/profile"
)

// The analyze verb turns the profiles a traced run wrote (one
// <key>.profile.json per simulated cell, beside the Chrome trace) into
// attribution reports: where each cell's virtual time went per rank,
// which collectives it blocked in, the critical path that equals the
// makespan, and — with -diff — which phases explain the delta between
// two configurations. Everything renders from the profile files alone,
// so analyze never simulates and its output is byte-deterministic.

// runAnalyze drives the verb: stdout tables by default, CSV under
// -csv, an artifact tree under -o, a two-cell comparison under -diff.
func runAnalyze(w io.Writer, cfg cliConfig) error {
	if cfg.traceDir == "" {
		return usageError("analyze needs -trace DIR: the directory a traced run wrote profiles into")
	}
	if cfg.top < 0 {
		return usageError(fmt.Sprintf("-top must be ≥ 0 (0 = all segments), got %d", cfg.top))
	}
	ps, err := profile.ReadDir(cfg.traceDir)
	if err != nil {
		return err
	}
	if cfg.diffSpec != "" {
		a, b, err := pickDiffPair(ps, cfg.diffSpec)
		if err != nil {
			return err
		}
		profile.DiffText(w, profile.Diff(a, b))
		return nil
	}
	if cfg.analyzeOut != "" {
		return writeAnalysisTree(cfg.analyzeOut, ps, cfg.top)
	}
	if cfg.csv {
		profile.AttributionCSV(w, ps)
		profile.PhasesCSV(w, ps)
		return nil
	}
	profile.Summary(w, ps)
	for _, p := range ps {
		profile.RankTable(w, p)
		profile.PhaseTable(w, p)
		profile.PathText(w, p, cfg.top)
	}
	return nil
}

// pickDiffPair resolves -diff's "A=B" argument: two label substrings,
// each selecting exactly one profiled cell.
func pickDiffPair(ps []*profile.CellProfile, spec string) (a, b *profile.CellProfile, err error) {
	i := strings.Index(spec, "=")
	if i <= 0 || i == len(spec)-1 {
		return nil, nil, usageError(`-diff takes "A=B": two cell-label substrings, each matching exactly one cell`)
	}
	if a, err = pickCell(ps, spec[:i]); err != nil {
		return nil, nil, err
	}
	if b, err = pickCell(ps, spec[i+1:]); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// pickCell finds the one profile whose label contains pat; anything
// but exactly one match is an error listing the candidates.
func pickCell(ps []*profile.CellProfile, pat string) (*profile.CellProfile, error) {
	var hits []*profile.CellProfile
	for _, p := range ps {
		if strings.Contains(p.Label, pat) {
			hits = append(hits, p)
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return nil, fmt.Errorf("analyze: no profiled cell label contains %q; cells: %s", pat, labelList(ps))
	}
	return nil, fmt.Errorf("analyze: %q is ambiguous: matches %s", pat, labelList(hits))
}

// labelList joins profile labels for diagnostics.
func labelList(ps []*profile.CellProfile) string {
	labels := make([]string, len(ps))
	for i, p := range ps {
		labels[i] = fmt.Sprintf("%q", p.Label)
	}
	return strings.Join(labels, ", ")
}

// writeAnalysisTree renders the full artifact tree under dir:
//
//	summary.txt          attribution tables (per cell and per rank)
//	attribution.csv      per-rank breakdowns, machine-readable
//	phases.csv           per-collective totals, machine-readable
//	critical-path.txt    each cell's path composition and segments
//	folded/<key>.folded  folded stacks for flamegraph tools
//
// Files are written whole from in-memory renders, so two runs over the
// same profiles produce byte-identical trees.
func writeAnalysisTree(dir string, ps []*profile.CellProfile, top int) error {
	if err := os.MkdirAll(filepath.Join(dir, "folded"), 0o755); err != nil {
		return err
	}
	write := func(name string, render func(io.Writer)) error {
		var buf bytes.Buffer
		render(&buf)
		return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
	}
	if err := write("summary.txt", func(w io.Writer) {
		profile.Summary(w, ps)
		for _, p := range ps {
			profile.RankTable(w, p)
			profile.PhaseTable(w, p)
		}
	}); err != nil {
		return err
	}
	if err := write("attribution.csv", func(w io.Writer) { profile.AttributionCSV(w, ps) }); err != nil {
		return err
	}
	if err := write("phases.csv", func(w io.Writer) { profile.PhasesCSV(w, ps) }); err != nil {
		return err
	}
	if err := write("critical-path.txt", func(w io.Writer) {
		for _, p := range ps {
			profile.PathText(w, p, top)
		}
	}); err != nil {
		return err
	}
	for _, p := range ps {
		p := p
		if err := write(filepath.Join("folded", p.Key+".folded"), func(w io.Writer) {
			profile.FoldedText(w, p)
		}); err != nil {
			return err
		}
	}
	return nil
}
