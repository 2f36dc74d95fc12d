package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/units"
	"repro/internal/vtime"
)

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
	// TotalEvents counts events offered to the ring; DroppedEvents the
	// oldest ones the bounded ring overwrote.
	TotalEvents   int64 `json:"totalEvents"`
	DroppedEvents int64 `json:"droppedEvents"`
	// Kernel reports the execution's final scheduler counters, when
	// attached via SetKernel.
	Kernel *chromeKernel `json:"kernel,omitempty"`
}

// chromeKernel mirrors vtime.Counters with wire tags.
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

// chrome renders one recorded event.
func (e event) chrome() ChromeEvent {
	switch e.kind {
	case evSwitch:
		return ChromeEvent{Name: "switch", Cat: "kernel", Ph: "i", Ts: usec(e.t0), Tid: e.b,
			Args: switchArgs{From: e.a}}
	case evPark:
		return ChromeEvent{Name: "park", Cat: "kernel", Ph: "i", Ts: usec(e.t0), Tid: e.a,
			Args: parkArgs{Tag: e.name}}
	case evWake:
		return ChromeEvent{Name: "wake", Cat: "kernel", Ph: "i", Ts: usec(e.t0), Tid: e.a,
			Args: wakeArgs{Woken: e.b, AtSrc: usec(e.t1)}}
	case evIdle:
		return ChromeEvent{Name: "idle", Cat: "wait", Ph: "X", Ts: usec(e.t0), Dur: usec(e.t1 - e.t0), Tid: e.a,
			Args: idleArgs{Tag: e.name}}
	case evFlush:
		return ChromeEvent{Name: "flush-wakes", Cat: "kernel", Ph: "i", Ts: usec(e.t0), Tid: kernelTid,
			Args: flushArgs{Batch: e.a}}
	case evMessage:
		return ChromeEvent{Name: "msg", Cat: "mpi", Ph: "X", Ts: usec(e.t0), Dur: usec(e.t1 - e.t0), Tid: e.b,
			Args: msgArgs{Src: e.a, Dst: e.b, Tag: e.c, Bytes: e.size.Bytes(), Transport: e.name}}
	case evPhaseBegin:
		return ChromeEvent{Name: e.name, Cat: "collective", Ph: "B", Ts: usec(e.t0), Tid: e.a}
	case evPhaseEnd:
		return ChromeEvent{Name: e.name, Cat: "collective", Ph: "E", Ts: usec(e.t0), Tid: e.a}
	default:
		panic(fmt.Sprintf("telemetry: unknown event kind %d", e.kind))
	}
}

// Export renders the trace as Chrome Trace Event Format JSON. The
// output is a pure function of the recorded events: the same cell
// produces byte-identical bytes on every run.
func (t *CellTrace) Export() ([]byte, error) {
	events := t.ordered()
	other := chromeOtherData{
		Label:         t.label,
		Clock:         "virtual",
		TotalEvents:   t.total,
		DroppedEvents: t.total - int64(len(events)),
	}
	if t.hasKernel {
		k := t.kernel
		other.Kernel = &chromeKernel{
			Switches:    k.Switches,
			SyncFast:    k.SyncFast,
			PingPong:    k.PingPong,
			Wakes:       k.Wakes,
			WakeBatches: k.WakeBatches,
			HeapOps:     k.HeapOps,
		}
	}
	out := make([]ChromeEvent, 0, len(events)+1)
	out = append(out, ChromeProcessName(0, t.label))
	for _, e := range events {
		out = append(out, e.chrome())
	}
	data, err := MarshalChrome(out, other)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return data, nil
}

// WriteFile exports the trace into dir as <name>.trace.json, creating
// dir if needed.
func (t *CellTrace) WriteFile(dir, name string) error {
	data, err := t.Export()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	path := filepath.Join(dir, name+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// compile-time interface check against the kernel seam (the mpi seams
// are structural; experiments wires them).
var _ vtime.Tracer = (*CellTrace)(nil)
