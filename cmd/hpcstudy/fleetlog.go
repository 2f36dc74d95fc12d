package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/fleettrace"
)

// runFleetlog merges the -fleetlog journals under dir into one
// clock-aligned timeline. Default output is the per-worker wall-clock
// attribution table (exact tiling: simulate + wire + backoff + idle ==
// each worker's observed span); -csv emits it as CSV; -chrome FILE
// additionally writes the merged Chrome Trace Event timeline; -diff
// DIRB renders the attribution delta of a second run against this one.
// Everything printed is a pure function of the journal bytes, so two
// invocations over the same directory are byte-identical.
func runFleetlog(w io.Writer, dir string, cfg cliConfig) error {
	run, err := fleettrace.ReadDir(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fleetlog %s: %s\n", dir, run.Summary())
	if cfg.chromeOut != "" {
		data, err := run.Chrome()
		if err != nil {
			return err
		}
		if cfg.chromeOut == "-" {
			if _, err := w.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(cfg.chromeOut, data, 0o644); err != nil {
			return err
		} else {
			fmt.Fprintf(w, "fleetlog: wrote Chrome trace to %s (%d bytes)\n", cfg.chromeOut, len(data))
		}
	}
	if cfg.diffSpec != "" {
		runB, err := fleettrace.ReadDir(cfg.diffSpec)
		if err != nil {
			return err
		}
		diffs, err := fleettrace.DiffRuns(run, runB)
		if err != nil {
			return err
		}
		fleettrace.RenderDiff(w, diffs)
		return nil
	}
	attrs, err := run.Attribution()
	if err != nil {
		return err
	}
	if cfg.csv {
		fleettrace.AttributionCSV(w, attrs)
	} else {
		fleettrace.RenderAttribution(w, attrs)
	}
	return nil
}
