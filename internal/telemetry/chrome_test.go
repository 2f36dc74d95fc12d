package telemetry_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleettrace"
	"repro/internal/telemetry"
)

// TestFleetChromeGolden pins the fleet side of the shared Chrome writer
// (TestExportGolden pins the cell side): the golden journal, merged and
// exported by internal/fleettrace, must keep the bytes fleettrace's own
// writer produced before the two were merged — "s"/"id" present on
// fleet events, absent from cell events.
func TestFleetChromeGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w-a.fleetlog.jsonl")
	if err := os.WriteFile(path, []byte(telemetry.GoldenFleetJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := fleettrace.ReadFiles([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := run.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"w-a"}},` +
		`{"name":"claim","cat":"wire","ph":"X","ts":0,"dur":0.01,"pid":0,"tid":0,"args":{"span":"w-a#1","outcome":"ok","label":"claim","detail":"POST /v1/work/claim: 200"},"id":"w-a#1"},` +
		`{"name":"requeue","cat":"point","ph":"i","ts":0.02,"pid":0,"tid":0,"args":{"parent":"w-a#1","trace":"w-a","outcome":"requeued","label":"L1"},"s":"p"}],` +
		`"displayTimeUnit":"ms","otherData":{"clock":"wall","procs":1}}` + "\n"
	if string(data) != want {
		t.Fatalf("fleet Chrome export:\n%s\nwant:\n%s", data, want)
	}
}
