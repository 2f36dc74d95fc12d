package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/units"
	"repro/internal/vtime"
)

// transcript renders what TestEndpointPaths pins of an execution's
// log: every message, and every park, wake and idle with its tag and
// times. Switches are the kernel's business (vtime.TestScheduleGolden).
func transcript(l *vtime.Log) []string {
	var lines []string
	for i := 0; i < l.Len(); i++ {
		e := l.At(i)
		switch e.Kind {
		case vtime.EvPark:
			lines = append(lines, fmt.Sprintf("park %d %s %v", e.A, l.Name(e.Name), float64(e.T0)))
		case vtime.EvWake:
			lines = append(lines, fmt.Sprintf("wake %d>%d %v %v", e.A, e.B, float64(e.T0), float64(e.T1)))
		case vtime.EvIdle:
			lines = append(lines, fmt.Sprintf("idle %d %s %v %v", e.A, l.Name(e.Name), float64(e.T0), float64(e.T1)))
		case vtime.EvMessage:
			lines = append(lines, fmt.Sprintf("msg %d>%d tag %d %dB %s %v %v",
				e.A, e.B, e.C, int64(e.Size), l.Name(e.Name), float64(e.T0), float64(e.T1)))
		}
	}
	return lines
}

// endpointWire is the fixed transport of the endpoint tests: its numbers
// are the test's own, so a recalibrated fabric preset cannot move the
// pins. It shares the NIC and charges per packet so every term of the
// cost model is in the pinned times.
var endpointWire = fabric.Transport{
	Name:           "pinned",
	Latency:        2 * units.Microsecond,
	Overhead:       1 * units.Microsecond,
	Bandwidth:      1 * units.GBps,
	EagerThreshold: 1024,
	PerPacketCPU:   0.25 * units.Microsecond,
	MTU:            512,
	SharesNIC:      true,
}

func endpointConfig(log *vtime.Log) Config {
	return Config{
		Ranks:           2,
		Nodes:           2,
		NodeOf:          func(r int) int { return r },
		Path:            func(src, dst int) *fabric.Transport { return &endpointWire },
		ComputeDilation: 1,
		Log:             log,
	}
}

// endpointPins are TestEndpointPaths' expected renderings by protocol,
// send call and arrival order, printed by the test itself at commit
// 4b6770a — before the queue entries and the handle became one record. A
// size-only exchange renders exactly as its payload twin, so the two
// share a pin. They change only with the cost model or the log's contents.
var endpointPins = map[string]string{
	"eager/Send/recv-first": `end 1.1249999999999999e-05 1.4531999999999999e-05 bytes 32 msgs 1 maxcomm 1.4531999999999999e-05
park 1 wait:irecv 0
msg 0>1 tag 7 32B pinned 9.999999999999999e-06 1.4531999999999999e-05
wake 0>1 1.4531999999999999e-05 1.1249999999999999e-05`,
	"eager/Send/send-first": `end 1.2499999999999999e-06 1.1249999999999999e-05 bytes 32 msgs 1 maxcomm 1.2499999999999999e-06
msg 0>1 tag 7 32B pinned 0 1.1249999999999999e-05
idle 1 wait:irecv 9.999999999999999e-06 1.1249999999999999e-05`,
	"eager/Isend+Wait/recv-first": `end 1.1249999999999999e-05 1.4531999999999999e-05 bytes 32 msgs 1 maxcomm 1.4531999999999999e-05
park 1 wait:irecv 0
msg 0>1 tag 7 32B pinned 9.999999999999999e-06 1.4531999999999999e-05
wake 0>1 1.4531999999999999e-05 1.1249999999999999e-05`,
	"eager/Isend+Wait/send-first": `end 1.2499999999999999e-06 1.1249999999999999e-05 bytes 32 msgs 1 maxcomm 1.2499999999999999e-06
msg 0>1 tag 7 32B pinned 0 1.1249999999999999e-05
idle 1 wait:irecv 9.999999999999999e-06 1.1249999999999999e-05`,
	"rendezvous/Send/recv-first": `end 1.7048e-05 1.9048e-05 bytes 2048 msgs 1 maxcomm 1.9048e-05
park 1 wait:irecv 0
msg 0>1 tag 7 2048B pinned 9.999999999999999e-06 1.9048e-05
wake 0>1 1.9048e-05 1.1e-05
idle 0 wait:send-rdv 1.1e-05 1.7048e-05`,
	"rendezvous/Send/send-first": `end 1.8048e-05 1.8048e-05 bytes 2048 msgs 1 maxcomm 1.8048e-05
park 0 wait:send-rdv 1e-06
msg 0>1 tag 7 2048B pinned 0 1.8048e-05
wake 1>0 1.8048e-05 9.999999999999999e-06
idle 1 wait:irecv 9.999999999999999e-06 1.8048e-05`,
	"rendezvous/Isend+Wait/recv-first": `end 1.7048e-05 1.9048e-05 bytes 2048 msgs 1 maxcomm 1.9048e-05
park 1 wait:irecv 0
msg 0>1 tag 7 2048B pinned 9.999999999999999e-06 1.9048e-05
wake 0>1 1.9048e-05 1.1e-05
idle 0 wait:isend 1.1e-05 1.7048e-05`,
	"rendezvous/Isend+Wait/send-first": `end 1.8048e-05 1.8048e-05 bytes 2048 msgs 1 maxcomm 1.8048e-05
park 0 wait:isend 1e-06
msg 0>1 tag 7 2048B pinned 0 1.8048e-05
wake 1>0 1.8048e-05 9.999999999999999e-06
idle 1 wait:irecv 9.999999999999999e-06 1.8048e-05`,
}

// TestEndpointPaths drives one message from rank 0 to rank 1 down every
// path of the point-to-point layer — {eager, rendezvous} × {Send,
// Isend+Wait} × {receive posted first, send queued first} × {payload,
// size-only} — and pins both ranks' end clocks, the Stats and the log's
// transcript. The side that arrives second does so 10 µs in. Size-only
// means IrecvModel and, where a size-only send exists, IsendModel; a
// blocking Send has no such variant and delivers zeros into the
// size-only receive.
func TestEndpointPaths(t *testing.T) {
	const tag = 7
	late := 10 * units.Microsecond
	for _, proto := range []struct {
		name string
		n    int
	}{{"eager", 4}, {"rendezvous", 256}} {
		for _, blocking := range []bool{true, false} {
			for _, recvFirst := range []bool{true, false} {
				for _, sizeOnly := range []bool{false, true} {
					pin := proto.name
					pin += map[bool]string{true: "/Send", false: "/Isend+Wait"}[blocking]
					pin += map[bool]string{true: "/recv-first", false: "/send-first"}[recvFirst]
					t.Run(pin+map[bool]string{true: "/size-only", false: "/payload"}[sizeOnly], func(t *testing.T) {
						data := make([]float64, proto.n)
						for i := range data {
							data[i] = float64(i + 1)
						}
						got := make([]float64, proto.n)
						log := &vtime.Log{}
						st, err := Run(endpointConfig(log), func(r *Rank) {
							if r.ID() == 0 {
								if recvFirst {
									r.Compute(late)
								}
								switch {
								case blocking && sizeOnly:
									r.Send(1, tag, make([]float64, proto.n))
								case blocking:
									r.Send(1, tag, data)
								case sizeOnly:
									r.Wait(r.IsendModel(1, tag, proto.n))
								default:
									r.Wait(r.Isend(1, tag, data))
								}
								return
							}
							if !recvFirst {
								r.Compute(late)
							}
							if sizeOnly {
								r.Wait(r.IrecvModel(0, tag, proto.n))
							} else {
								r.Wait(r.Irecv(0, tag, got))
							}
						})
						if err != nil {
							t.Fatal(err)
						}
						if !sizeOnly {
							for i := range got {
								if got[i] != data[i] {
									t.Fatalf("payload[%d] = %v, sent %v", i, got[i], data[i])
								}
							}
						}
						rendered := fmt.Sprintf("end %v %v bytes %d msgs %d maxcomm %v\n%s",
							float64(st.RankEnd[0]), float64(st.RankEnd[1]),
							int64(st.TotalBytes), st.TotalMessages, float64(st.MaxCommTime),
							strings.Join(transcript(log), "\n"))
						if want := endpointPins[pin]; rendered != want {
							t.Errorf("transcript moved.\ngot:\n%s\nwant:\n%s", rendered, want)
						}
					})
				}
			}
		}
	}
}

// TestEndpointAllocs holds the fold: a matched Isend/Irecv pair is two
// heap objects, one Request per side — no separate queue entries. The
// pairs are size-only (no payload copy) and alternate eager and
// rendezvous; measuring at two lengths cancels the world's set-up.
func TestEndpointAllocs(t *testing.T) {
	allocs := func(pairs int) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := Run(endpointConfig(nil), func(r *Rank) {
				for i := 0; i < pairs; i++ {
					n := 4 + 252*(i%2)
					if r.ID() == 0 {
						r.Wait(r.IsendModel(1, i, n))
					} else {
						r.Wait(r.IrecvModel(0, i, n))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// The runtime itself allocates an object or two per run, not always
	// the same number: hence the tolerance, which a third object per
	// pair exceeds a hundredfold.
	const short, long = 1000, 3000
	if perPair := (allocs(long) - allocs(short)) / (long - short); math.Abs(perPair-2) > 0.01 {
		t.Fatalf("%.3f heap objects per matched Isend/Irecv pair, want 2", perPair)
	}
}
