package mpi

import (
	"reflect"
	"testing"
)

// modelStats runs a two-rank exchange of n float64s using the given
// send/recv bodies and returns the stats.
func exchangeStats(t *testing.T, p, rpn, n int, body func(r *Rank, n int)) Stats {
	t.Helper()
	st, err := Run(testConfig(p, rpn), func(r *Rank) { body(r, n) })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestModelMessagesMatchZeroPayloads is the size-only contract: a
// model exchange must be indistinguishable — same end time, same comm
// time, same byte counts — from sending real zero-filled buffers of
// the same length, for both eager and rendezvous sizes, intra- and
// inter-node.
func TestModelMessagesMatchZeroPayloads(t *testing.T) {
	cases := []struct {
		name   string
		p, rpn int
		n      int
	}{
		{"eager-intra", 2, 2, 8},
		{"eager-inter", 2, 1, 8},
		{"rendezvous-intra", 2, 2, 1 << 16},
		{"rendezvous-inter", 2, 1, 1 << 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			real := exchangeStats(t, tc.p, tc.rpn, tc.n, func(r *Rank, n int) {
				buf := make([]float64, n)
				if r.ID() == 0 {
					r.Wait(r.Isend(1, 3, buf))
				} else {
					r.Wait(r.Irecv(0, 3, buf))
				}
			})
			model := exchangeStats(t, tc.p, tc.rpn, tc.n, func(r *Rank, n int) {
				if r.ID() == 0 {
					r.Wait(r.IsendModel(1, 3, n))
				} else {
					r.Wait(r.IrecvModel(0, 3, n))
				}
			})
			if !reflect.DeepEqual(real, model) {
				t.Fatalf("model stats differ from zero-payload stats:\nreal  %+v\nmodel %+v", real, model)
			}
		})
	}
}

// TestModelMixedWithRealRecv asserts a size-only message delivers
// zeros into a real receive buffer (the documented mixed-mode
// semantics), clearing stale contents.
func TestModelMixedWithRealRecv(t *testing.T) {
	buf := []float64{1, 2, 3}
	_, err := Run(testConfig(2, 2), func(r *Rank) {
		if r.ID() == 0 {
			r.Wait(r.IsendModel(1, 4, len(buf)))
		} else {
			r.Wait(r.Irecv(0, 4, buf))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("buf[%d] = %v after model send, want 0", i, v)
		}
	}
}

// TestModelCountMismatchPanics keeps the truncation check alive for
// size-only endpoints.
func TestModelCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("count mismatch did not panic")
		}
	}()
	_, _ = Run(testConfig(2, 2), func(r *Rank) {
		if r.ID() == 0 {
			r.Wait(r.IsendModel(1, 5, 8))
		} else {
			r.Wait(r.IrecvModel(0, 5, 4))
		}
	})
}
