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

// TestEndpointAllocs holds the recycling: once a world's free list
// holds its peak of in-flight records, a matched message allocates
// nothing, whether its endpoints are Isend/Irecv+Wait, blocking
// Send/Recv, their size-only SendModel/RecvModel or one SendRecv
// exchange. The messages alternate eager and
// rendezvous; measuring at two lengths cancels the world's set-up.
func TestEndpointAllocs(t *testing.T) {
	snd, rcv := make([]float64, 256), make([]float64, 256)
	for _, c := range []struct {
		name string
		step func(r *Rank, i, n int)
	}{
		{"Isend+Irecv", func(r *Rank, i, n int) {
			if r.ID() == 0 {
				r.Wait(r.IsendModel(1, i, n))
			} else {
				r.Wait(r.IrecvModel(0, i, n))
			}
		}},
		{"Send+Recv", func(r *Rank, i, n int) {
			if r.ID() == 0 {
				r.Send(1, i, snd[:n])
			} else {
				r.Recv(0, i, rcv[:n])
			}
		}},
		{"SendModel+RecvModel", func(r *Rank, i, n int) {
			if r.ID() == 0 {
				r.SendModel(1, i, n)
			} else {
				r.RecvModel(0, i, n)
			}
		}},
		{"SendRecv", func(r *Rank, i, n int) {
			peer := 1 - r.ID()
			buf := snd[:n]
			if r.ID() == 1 {
				buf = rcv[:n] // the ranks share no buffer
			}
			r.SendRecv(peer, i, buf, peer, i, buf)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(steps int) float64 {
				return testing.AllocsPerRun(3, func() {
					_, err := Run(endpointConfig(nil), func(r *Rank) {
						for i := 0; i < steps; i++ {
							c.step(r, i, 4+252*(i%2))
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			// The runtime itself allocates an object or two per run, not
			// always the same number: hence the tolerance, which one
			// object per hundred steps exceeds.
			const short, long = 1000, 3000
			if perStep := (allocs(long) - allocs(short)) / (long - short); math.Abs(perStep) > 0.01 {
				t.Fatalf("%.3f heap objects per %s step, want 0", perStep, c.name)
			}
		})
	}
}

// TestWaitConsumesRequest holds MPI_Wait's contract: Wait consumes its
// requests, so waiting on one again — in a later Wait, or listed twice
// in one — panics instead of reading whichever message reused the
// record.
func TestWaitConsumesRequest(t *testing.T) {
	for _, c := range []struct {
		name string
		wait func(r *Rank, q *Request)
	}{
		{"again after Wait", func(r *Rank, q *Request) { r.Wait(q); r.Wait(q) }},
		{"twice in one Wait", func(r *Rank, q *Request) { r.Wait(q, q) }},
	} {
		// Receive posted first, the record is settled and free when the
		// first wait returns; send first, the eager send is still queued
		// in the receiver's mailbox.
		for _, recvFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/recv-first=%v", c.name, recvFirst), func(t *testing.T) {
				const want = "mpi: rank 0 waits on a request already consumed by Wait"
				defer func() {
					if got := fmt.Sprint(recover()); !strings.HasSuffix(got, want) {
						t.Fatalf("panic %q, want one ending %q", got, want)
					}
				}()
				_, _ = Run(endpointConfig(nil), func(r *Rank) {
					if r.ID() == 0 {
						if recvFirst {
							r.Compute(units.Microsecond)
						}
						c.wait(r, r.Isend(1, 7, []float64{1}))
						return
					}
					if !recvFirst {
						r.Compute(units.Microsecond)
					}
					r.Recv(0, 7, make([]float64, 1))
				})
			})
		}
	}
}

// TestCollectiveAllocs holds the collectives to their per-Comm scratch:
// after the first call on a Comm, a Barrier, an AllreduceScalar or a
// short Allreduce allocates nothing under any algorithm, at a power of
// two and at a size that takes recursive doubling's pre/post phase.
func TestCollectiveAllocs(t *testing.T) {
	for _, algo := range []AllreduceAlgo{AllreduceRecursiveDoubling, AllreduceRing, AllreduceReduceBcast, AllreduceHierarchical} {
		for _, p := range []int{6, 8} {
			for _, c := range []struct {
				name string
				call func(c *Comm, buf []float64)
			}{
				{"Barrier", func(c *Comm, _ []float64) { c.Barrier() }},
				{"AllreduceScalar", func(c *Comm, _ []float64) { c.AllreduceScalar(1, OpSum) }},
				{"Allreduce", func(c *Comm, buf []float64) { c.Allreduce(buf, OpMax) }},
			} {
				t.Run(fmt.Sprintf("%v/P=%d/%s", algo, p, c.name), func(t *testing.T) {
					cfg := testConfig(p, 4)
					cfg.Allreduce = algo
					bufs := make([][]float64, p)
					for i := range bufs {
						bufs[i] = make([]float64, 4)
					}
					allocs := func(calls int) float64 {
						return testing.AllocsPerRun(3, func() {
							_, err := Run(cfg, func(r *Rank) {
								for i := 0; i < calls; i++ {
									c.call(r.World(), bufs[r.ID()])
								}
							})
							if err != nil {
								t.Fatal(err)
							}
						})
					}
					// As in TestEndpointAllocs, the tolerance absorbs the
					// runtime's own object or two per run; an allocating
					// collective costs at least one object per call.
					const short, long = 50, 250
					if perCall := (allocs(long) - allocs(short)) / (long - short); math.Abs(perCall) > 0.05 {
						t.Fatalf("%.3f heap objects per call, want 0", perCall)
					}
				})
			}
		}
	}
}
