// Package telemetry is the unified observability layer: virtual-time
// execution traces, a zero-dependency metrics registry with Prometheus
// text exposition, and study/sweep progress reporting.
//
// The package splits along the repository's determinism boundary:
//
//   - Export folds a cell's event log into a Chrome trace timestamped
//     in *virtual* time only — it is wallclock-clean, and the same cell
//     produces a byte-identical trace on every run.
//   - Registry and Progress live on the host side (CLI, registry
//     service). Progress samples the wall clock — explicitly allowed,
//     since nothing it measures feeds simulated results.
//
// The simulator's one telemetry seam is data: a vtime.Log set as a
// cell's Log receives the kernel's scheduling events, every message and
// every collective span, and Export reads it after the run.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/units"
	"repro/internal/vtime"
)

// DefaultTraceEvents bounds a cell's Chrome trace to the newest events
// of its log: enough for a quick cell's full schedule while keeping a
// paper-scale cell's trace to tens of megabytes. The tail of a schedule
// is where a regression usually lives, so recency wins.
const DefaultTraceEvents = 1 << 16

// The Chrome Trace Event Format wire types (the JSON Object Format
// variant: a traceEvents array plus metadata), shared by the cell
// traces here and internal/fleettrace's merged fleet timeline; each
// exporter supplies its own otherData. chromeTrace is registered in the
// repolint WireRoots, so every exported field stays json-tagged.
type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       any           `json:"otherData"`
}

// MarshalChrome renders events and the exporter's metadata as one
// newline-terminated Chrome Trace Event Format document. otherData and
// every event's Args must be concrete structs, never maps: the field
// order — and therefore the exported bytes — is then fixed by
// declaration, not by map-key sorting.
func MarshalChrome(events []ChromeEvent, otherData any) ([]byte, error) {
	data, err := json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: otherData})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// chromeOtherData carries the cell identity and recording summary.
// Cell-trace timestamps are microseconds of *virtual* time, so the
// timeline a viewer renders is the simulated schedule, not wall time.
type chromeOtherData struct {
	Label string `json:"label"`
	// Clock names the timestamp domain; always "virtual".
	Clock string `json:"clock"`
	// TotalEvents counts the events the cell logged; DroppedEvents the
	// oldest ones the trace leaves out (see DefaultTraceEvents).
	TotalEvents   int64 `json:"totalEvents"`
	DroppedEvents int64 `json:"droppedEvents"`
	// Kernel reports the execution's final scheduler counters.
	Kernel chromeKernel `json:"kernel"`
}

// chromeKernel mirrors vtime.Counters, field for field, with wire tags.
type chromeKernel struct {
	Switches    int64 `json:"switches"`
	SyncFast    int64 `json:"syncFast"`
	PingPong    int64 `json:"pingPong"`
	Wakes       int64 `json:"wakes"`
	WakeBatches int64 `json:"wakeBatches"`
	HeapOps     int64 `json:"heapOps"`
}

// ChromeEvent is one trace record. Ph selects the event type: "X"
// complete (Ts..Ts+Dur), "B"/"E" nested span begin/end, "i" instant,
// "M" metadata.
type ChromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
	S    string  `json:"s,omitempty"` // instant scope: "p" = process
	ID   string  `json:"id,omitempty"`
}

// ChromeProcessName is the metadata record naming track pid.
func ChromeProcessName(pid int, name string) ChromeEvent {
	return ChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{Name: name}}
}

// Per-kind argument payloads (concrete types: see MarshalChrome).
type (
	nameArgs struct {
		Name string `json:"name"`
	}
	switchArgs struct {
		From int `json:"from"`
	}
	parkArgs struct {
		Tag string `json:"tag"`
	}
	wakeArgs struct {
		Woken int     `json:"woken"`
		AtSrc float64 `json:"atSrc"` // waker's clock (µs) at the wake
	}
	idleArgs struct {
		Tag string `json:"tag"`
	}
	flushArgs struct {
		Batch int `json:"batch"`
	}
	msgArgs struct {
		Src       int     `json:"src"`
		Dst       int     `json:"dst"`
		Tag       int     `json:"tag"`
		Bytes     float64 `json:"bytes"`
		Transport string  `json:"transport"`
	}
)

// kernelTid is the synthetic thread carrying scheduler-global events
// (batched wake flushes) that belong to no single rank.
const kernelTid = -1

// usec converts virtual seconds to the trace's microsecond timestamps.
func usec(s units.Seconds) float64 { return float64(s) * 1e6 }

// chrome renders one logged event.
func chrome(log *vtime.Log, e vtime.Event) ChromeEvent {
	a, b := int(e.A), int(e.B)
	switch e.Kind {
	case vtime.EvSwitch:
		return ChromeEvent{Name: "switch", Cat: "kernel", Ph: "i", Ts: usec(e.T0), Tid: b,
			Args: switchArgs{From: a}}
	case vtime.EvPark:
		return ChromeEvent{Name: "park", Cat: "kernel", Ph: "i", Ts: usec(e.T0), Tid: a,
			Args: parkArgs{Tag: log.Name(e.Name)}}
	case vtime.EvWake:
		return ChromeEvent{Name: "wake", Cat: "kernel", Ph: "i", Ts: usec(e.T0), Tid: a,
			Args: wakeArgs{Woken: b, AtSrc: usec(e.T1)}}
	case vtime.EvIdle:
		return ChromeEvent{Name: "idle", Cat: "wait", Ph: "X", Ts: usec(e.T0), Dur: usec(e.T1 - e.T0), Tid: a,
			Args: idleArgs{Tag: log.Name(e.Name)}}
	case vtime.EvFlush:
		return ChromeEvent{Name: "flush-wakes", Cat: "kernel", Ph: "i", Ts: usec(e.T0), Tid: kernelTid,
			Args: flushArgs{Batch: a}}
	case vtime.EvMessage:
		return ChromeEvent{Name: "msg", Cat: "mpi", Ph: "X", Ts: usec(e.T0), Dur: usec(e.T1 - e.T0), Tid: b,
			Args: msgArgs{Src: a, Dst: b, Tag: int(e.C), Bytes: e.Size.Bytes(), Transport: log.Name(e.Name)}}
	case vtime.EvPhaseBegin:
		return ChromeEvent{Name: log.Name(e.Name), Cat: "collective", Ph: "B", Ts: usec(e.T0), Tid: a}
	case vtime.EvPhaseEnd:
		return ChromeEvent{Name: log.Name(e.Name), Cat: "collective", Ph: "E", Ts: usec(e.T0), Tid: a}
	default:
		panic(fmt.Sprintf("telemetry: unknown event kind %d", e.Kind))
	}
}

// Export renders a cell's log as Chrome Trace Event Format JSON
// (chrome://tracing, Perfetto): its newest DefaultTraceEvents events,
// oldest first, with the execution's final scheduler counters. The
// output is a pure function of the log: the same cell produces
// byte-identical bytes on every run.
func Export(label string, log *vtime.Log, kernel vtime.Counters) ([]byte, error) {
	return export(label, log, kernel, DefaultTraceEvents)
}

// export renders the newest keep events of log.
func export(label string, log *vtime.Log, kernel vtime.Counters, keep int) ([]byte, error) {
	n := log.Len()
	first := max(0, n-keep)
	other := chromeOtherData{
		Label:         label,
		Clock:         "virtual",
		TotalEvents:   int64(n),
		DroppedEvents: int64(first),
		Kernel:        chromeKernel(kernel),
	}
	out := make([]ChromeEvent, 0, n-first+1)
	out = append(out, ChromeProcessName(0, label))
	for i := first; i < n; i++ {
		out = append(out, chrome(log, log.At(i)))
	}
	data, err := MarshalChrome(out, other)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return data, nil
}

// WriteTrace writes an exported trace into dir as <name>.trace.json,
// creating dir if needed.
func WriteTrace(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	path := filepath.Join(dir, name+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
