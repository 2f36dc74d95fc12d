package vtime

import (
	"fmt"
	"iter"
	"math"

	"repro/internal/units"
)

// Kind says what an Event records.
type Kind uint8

// Event kinds. The kernel appends the first four, the MPI layer the
// rest. Field use by kind:
//
//	EvSwitch:     A=from B=to           T0=to's clock (A is -1 for the first dispatch)
//	EvPark:       A=proc Name=tag       T0=now
//	EvWake:       A=waker B=woken       T0=woken's clock T1=waker's clock
//	EvFlush:      A=batch size          T0=running proc's clock
//	EvMessage:    A=src B=dst C=tag     T0=sent T1=arrived Size Name=transport
//	EvPhaseBegin: A=rank Name=collective T0=now
//	EvPhaseEnd:   A=rank Name=collective T0=now
//	EvIdle:       A=proc Name=tag       T0=from T1=to (T1 > T0)
const (
	EvSwitch Kind = iota
	EvPark
	EvWake
	EvFlush
	EvMessage
	EvPhaseBegin
	EvPhaseEnd
	EvIdle
)

// Event is one recorded occurrence, timestamped in virtual time. It
// holds no pointers — its name is an index into the log's name table —
// so a log of millions of events is never scanned by the collector.
type Event struct {
	Kind Kind
	// Name indexes the log's name table (see Log.Name); 0 is "".
	Name    uint16
	A, B, C int32
	T0, T1  units.Seconds
	Size    units.ByteSize
}

// chunkShift sizes the log's chunks: 16 Ki events (640 KiB) each, so
// growing never copies what is already recorded.
const (
	chunkShift = 14
	chunkLen   = 1 << chunkShift
)

// Log is the append-only record of one execution's events. The kernel
// and the MPI layer append to it as the execution runs; the Chrome trace
// and the time-attribution profile are folds over it once the run is
// over. Only the running process appends, so it needs no locking, and
// appending does not perturb the schedule: the same cell produces the
// same execution, logged or not. The zero value is an empty log.
type Log struct {
	chunks [][]Event
	n      int
	names  []string
	index  map[string]uint16
}

// Add appends e, with name interned into e.Name.
func (l *Log) Add(e Event, name string) {
	if name != "" {
		e.Name = l.intern(name)
	}
	i := l.n & (chunkLen - 1)
	if i == 0 {
		l.chunks = append(l.chunks, make([]Event, chunkLen))
	}
	l.chunks[len(l.chunks)-1][i] = e
	l.n++
}

func (l *Log) intern(name string) uint16 {
	if id, ok := l.index[name]; ok {
		return id
	}
	if l.index == nil {
		l.names, l.index = []string{""}, map[string]uint16{}
	}
	if len(l.names) > math.MaxUint16 {
		panic(fmt.Sprintf("vtime: log name table full at %q", name))
	}
	id := uint16(len(l.names))
	l.names = append(l.names, name)
	l.index[name] = id
	return id
}

// Len returns the number of events recorded.
func (l *Log) Len() int { return l.n }

// At returns event i, oldest first.
func (l *Log) At(i int) Event { return l.chunks[i>>chunkShift][i&(chunkLen-1)] }

// Name returns the interned name with index id (an Event's Name).
func (l *Log) Name(id uint16) string {
	if id == 0 {
		return ""
	}
	return l.names[id]
}

// Drain yields every event oldest first and leaves the log empty, its
// names still readable. Each chunk is released as soon as its events are
// yielded, so a fold that is the log's last reader never holds more than
// one chunk of a long execution besides what it builds.
func (l *Log) Drain() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		defer func() { l.chunks, l.n = nil, 0 }()
		for c, chunk := range l.chunks {
			l.chunks[c] = nil
			for _, e := range chunk[:min(chunkLen, l.n-c*chunkLen)] {
				if !yield(e) {
					return
				}
			}
		}
	}
}
