package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vtime"
)

// TestRingKeepsNewestEvents: past its bound the trace keeps the newest
// events, oldest first, and counts the ones it leaves out — what the
// fixed-size ring it replaced kept.
func TestRingKeepsNewestEvents(t *testing.T) {
	log := &vtime.Log{}
	for i := 0; i < 6; i++ {
		log.Add(vtime.Event{Kind: vtime.EvSwitch, A: int32(i), B: int32(i + 1)}, "")
	}
	data, err := export("ring", log, vtime.Counters{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args struct {
				From int `json:"from"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData chromeOtherData `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.OtherData; got.TotalEvents != 6 || got.DroppedEvents != 2 || len(doc.TraceEvents) != 5 {
		t.Fatalf("total %d dropped %d events %d, want 6, 2 and metadata + 4",
			got.TotalEvents, got.DroppedEvents, len(doc.TraceEvents))
	}
	for i, e := range doc.TraceEvents[1:] {
		if want := i + 2; e.Args.From != want {
			t.Fatalf("event %d is switch from %d, want %d (oldest-first after drop)", i, e.Args.From, want)
		}
	}
}

func TestExportGolden(t *testing.T) {
	log := &vtime.Log{}
	log.Add(vtime.Event{Kind: vtime.EvSwitch, A: -1, B: 0}, "")
	log.Add(vtime.Event{Kind: vtime.EvPhaseBegin, A: 0, T0: 1e-6}, "barrier")
	log.Add(vtime.Event{Kind: vtime.EvPark, A: 0, T0: 2e-6}, "recv")
	log.Add(vtime.Event{Kind: vtime.EvWake, A: 1, B: 0, T0: 3e-6, T1: 2.5e-6}, "")
	log.Add(vtime.Event{Kind: vtime.EvMessage, A: 1, B: 0, C: 7, T0: 2e-6, T1: 3.5e-6, Size: 4096}, "shm")
	log.Add(vtime.Event{Kind: vtime.EvIdle, A: 0, T0: 2e-6, T1: 4e-6}, "resource:nic-0")
	log.Add(vtime.Event{Kind: vtime.EvPhaseEnd, A: 0, T0: 4e-6}, "barrier")
	log.Add(vtime.Event{Kind: vtime.EvFlush, A: 2, T0: 5e-6}, "")
	data, err := Export("tiny", log, vtime.Counters{Switches: 3, Wakes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"tiny"}},` +
		`{"name":"switch","cat":"kernel","ph":"i","ts":0,"pid":0,"tid":0,"args":{"from":-1}},` +
		`{"name":"barrier","cat":"collective","ph":"B","ts":1,"pid":0,"tid":0},` +
		`{"name":"park","cat":"kernel","ph":"i","ts":2,"pid":0,"tid":0,"args":{"tag":"recv"}},` +
		`{"name":"wake","cat":"kernel","ph":"i","ts":3,"pid":0,"tid":1,"args":{"woken":0,"atSrc":2.5}},` +
		`{"name":"msg","cat":"mpi","ph":"X","ts":2,"dur":1.5,"pid":0,"tid":0,"args":{"src":1,"dst":0,"tag":7,"bytes":4096,"transport":"shm"}},` +
		`{"name":"idle","cat":"wait","ph":"X","ts":2,"dur":2,"pid":0,"tid":0,"args":{"tag":"resource:nic-0"}},` +
		`{"name":"barrier","cat":"collective","ph":"E","ts":4,"pid":0,"tid":0},` +
		`{"name":"flush-wakes","cat":"kernel","ph":"i","ts":5,"pid":0,"tid":-1,"args":{"batch":2}}],` +
		`"displayTimeUnit":"ms",` +
		`"otherData":{"label":"tiny","clock":"virtual","totalEvents":8,"droppedEvents":0,` +
		`"kernel":{"switches":3,"syncFast":0,"pingPong":0,"wakes":1,"wakeBatches":0,"heapOps":0}}}` + "\n"
	if string(data) != want {
		t.Fatalf("export:\n%s\nwant:\n%s", data, want)
	}
}

func TestExportValidJSONAndWriteFile(t *testing.T) {
	log := &vtime.Log{}
	log.Add(vtime.Event{Kind: vtime.EvSwitch, A: -1, B: 0}, "")
	log.Add(vtime.Event{Kind: vtime.EvMessage, A: 0, B: 1, T1: 1e-6, Size: 8}, "tcp")
	data, err := Export("cell", log, vtime.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "traces")
	if err := WriteTrace(dir, "deadbeef", data); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "deadbeef.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // metadata + 2 events
		t.Fatalf("traceEvents = %d, want 3", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event %d lacks %q: %v", i, k, ev)
			}
		}
	}
	if doc.OtherData["clock"] != "virtual" {
		t.Fatalf("otherData.clock = %v, want virtual", doc.OtherData["clock"])
	}
}
