package chaostest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRoundTripperProgram: the three modes behave as documented and
// the program matches in order, by method and path, with counts.
func TestRoundTripperProgram(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	rt := Wrap(nil,
		Fault{Method: "POST", PathPrefix: "/claim", Mode: Drop, Count: 1},
		Fault{Method: "POST", PathPrefix: "/complete", Mode: Reset, Count: 1},
		Fault{PathPrefix: "/slow", Mode: Delay, Count: 0, Delay: 5 * time.Millisecond},
	)
	client := &http.Client{Transport: rt}

	// Drop: the server never sees the request; the error is typed.
	before := served.Load()
	_, err := client.Post(ts.URL+"/claim", "text/plain", strings.NewReader("x"))
	if err == nil || !strings.Contains(err.Error(), ErrInjected.Error()) {
		t.Fatalf("dropped request error: %v", err)
	}
	if served.Load() != before {
		t.Fatal("dropped request reached the server")
	}
	// Count exhausted: the next claim goes through.
	if _, err := client.Post(ts.URL+"/claim", "text/plain", strings.NewReader("x")); err != nil {
		t.Fatalf("second claim should pass: %v", err)
	}

	// Reset: the server processes it, the caller still errors.
	before = served.Load()
	if _, err := client.Post(ts.URL+"/complete", "text/plain", strings.NewReader("x")); err == nil {
		t.Fatal("reset request returned success")
	}
	if served.Load() != before+1 {
		t.Fatal("reset request must still reach the server")
	}

	// Delay: slower, but successful — and unlimited (Count 0).
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, err := client.Get(ts.URL + "/slow")
		if err != nil {
			t.Fatalf("delayed request failed: %v", err)
		}
		resp.Body.Close()
		if time.Since(start) < 5*time.Millisecond {
			t.Fatal("delay fault did not delay")
		}
	}

	// Unmatched traffic is untouched.
	resp, err := client.Get(ts.URL + "/other")
	if err != nil {
		t.Fatalf("unmatched request failed: %v", err)
	}
	resp.Body.Close()

	dropped, reset, delayed := rt.Fired()
	if dropped != 1 || reset != 1 || delayed != 2 {
		t.Fatalf("fired %d/%d/%d, want 1 drop, 1 reset, 2 delays", dropped, reset, delayed)
	}
}

// TestRoundTripperAdd: faults appended at runtime take effect.
func TestRoundTripperAdd(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	rt := Wrap(nil)
	client := &http.Client{Transport: rt}
	if _, err := client.Get(ts.URL + "/x"); err != nil {
		t.Fatalf("clean program must pass traffic: %v", err)
	}
	rt.Add(Fault{Mode: Drop})
	if _, err := client.Get(ts.URL + "/x"); err == nil {
		t.Fatal("added fault did not fire")
	}
}

// TestProxyRelayAndReset: the TCP proxy relays HTTP end-to-end, adds
// its per-connection delay, and kills every Nth connection.
func TestProxyRelayAndReset(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	defer ts.Close()
	p, err := NewProxy("127.0.0.1:0", strings.TrimPrefix(ts.URL, "http://"), ProxyOptions{
		Delay:      2 * time.Millisecond,
		ResetEvery: 2, // every second connection dies on accept
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- p.Serve(ctx) }()

	// Force one TCP connection per request so the reset cadence is
	// deterministic: conn 1 relays, conn 2 resets, conn 3 relays...
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var ok, reset int
	for i := 0; i < 4; i++ {
		start := time.Now()
		resp, err := client.Get("http://" + p.Addr() + "/ping")
		if err != nil {
			reset++
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "pong" {
			t.Fatalf("relayed body %q", body)
		}
		if time.Since(start) < 2*time.Millisecond {
			t.Fatal("proxy did not add its delay")
		}
		ok++
	}
	if ok != 2 || reset != 2 {
		t.Fatalf("4 single-connection requests through reset-every-2: %d ok, %d reset", ok, reset)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestProxyServeWaitsForRelays: cancelling Serve while a connection is
// still being relayed closes it and waits for its relay, so no relay
// logs after Serve has returned (where a test's t.Logf would panic).
func TestProxyServeWaitsForRelays(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	held, released := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(released)
		c, err := backend.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 2)
		if _, err := io.ReadFull(c, buf); err == nil {
			close(held)
		}
		io.Copy(io.Discard, c)
	}()

	var mu sync.Mutex
	returned := false
	late := make(chan string, 16)
	p, err := NewProxy("127.0.0.1:0", backend.Addr().String(), ProxyOptions{
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if returned {
				late <- fmt.Sprintf(format, args...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		err := p.Serve(ctx)
		mu.Lock()
		returned = true
		mu.Unlock()
		served <- err
	}()

	client, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	<-held
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	client.Close()
	<-released
	select {
	case line := <-late:
		t.Fatalf("relay logged after Serve returned: %s", line)
	case <-time.After(100 * time.Millisecond):
	}
}
