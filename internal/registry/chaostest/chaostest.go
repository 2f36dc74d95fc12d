// Package chaostest injects programmable faults into registry traffic
// so every failure mode of the coordinated-sweep protocol — dropped
// claims, delayed heartbeats, reset uploads, a coordinator that
// vanishes mid-conversation — can be exercised deterministically
// in-process.
//
// Two layers are provided. RoundTripper wraps an http.RoundTripper
// with an ordered fault program, for in-process tests against
// httptest servers. Proxy relays real TCP connections with optional
// delay and periodic resets, for smoke tests that need faults between
// separate OS processes (see cmd/chaosproxy).
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what a matching fault does to a request.
type Mode int

const (
	// Drop fails the request before it is sent: the peer never sees
	// it. Models a dead link or a coordinator that is down.
	Drop Mode = iota
	// Reset sends the request but discards the response and returns a
	// connection error: the peer acted, the caller cannot know.
	// Distinguishes idempotent protocols from ones that double-apply.
	Reset
	// Delay sleeps before forwarding, then behaves normally. Models a
	// congested link or a GC-paused server.
	Delay
)

func (m Mode) String() string {
	switch m {
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Fault is one entry in a RoundTripper's program: requests matching
// Method (empty: any) and PathPrefix (empty: any) suffer Mode, Count
// times (0 means unlimited).
type Fault struct {
	Method     string
	PathPrefix string
	Mode       Mode
	// Count bounds how many requests this fault fires on; 0 is
	// unlimited. Decremented as requests match.
	Count int
	// Delay is the added latency for Mode == Delay.
	Delay time.Duration
}

// ErrInjected is the error injected requests fail with (wrapped), so
// tests can assert the failure came from the harness.
var ErrInjected = errors.New("chaostest: injected fault")

// RoundTripper wraps a base transport with a fault program. Faults are
// matched in order; the first live match fires. Safe for concurrent
// use.
type RoundTripper struct {
	base http.RoundTripper

	mu     sync.Mutex
	faults []*Fault

	// Injected counts faults fired, by mode.
	dropped, reset, delayed atomic.Int64
}

// Wrap builds a RoundTripper over base (nil: http.DefaultTransport)
// with a fault program.
func Wrap(base http.RoundTripper, faults ...Fault) *RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	rt := &RoundTripper{base: base}
	for i := range faults {
		f := faults[i]
		rt.faults = append(rt.faults, &f)
	}
	return rt
}

// Add appends a fault to the program at runtime.
func (rt *RoundTripper) Add(f Fault) {
	rt.mu.Lock()
	rt.faults = append(rt.faults, &f)
	rt.mu.Unlock()
}

// Fired reports how many faults have fired, by mode.
func (rt *RoundTripper) Fired() (dropped, reset, delayed int64) {
	return rt.dropped.Load(), rt.reset.Load(), rt.delayed.Load()
}

// match consumes the first live fault matching the request, if any.
func (rt *RoundTripper) match(req *http.Request) *Fault {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, f := range rt.faults {
		if f.Count < 0 {
			continue // exhausted
		}
		if f.Method != "" && f.Method != req.Method {
			continue
		}
		if f.PathPrefix != "" && !strings.HasPrefix(req.URL.Path, f.PathPrefix) {
			continue
		}
		if f.Count > 0 {
			f.Count--
			if f.Count == 0 {
				f.Count = -1 // last firing; retire
			}
		}
		return f
	}
	return nil
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	f := rt.match(req)
	if f == nil {
		return rt.base.RoundTrip(req)
	}
	switch f.Mode {
	case Drop:
		rt.dropped.Add(1)
		return nil, fmt.Errorf("%w: dropped %s %s", ErrInjected, req.Method, req.URL.Path)
	case Reset:
		resp, err := rt.base.RoundTrip(req)
		if err == nil {
			// The peer processed the request; the caller must not know.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rt.reset.Add(1)
		return nil, fmt.Errorf("%w: reset after %s %s", ErrInjected, req.Method, req.URL.Path)
	case Delay:
		rt.delayed.Add(1)
		time.Sleep(f.Delay)
		return rt.base.RoundTrip(req)
	default:
		return nil, fmt.Errorf("%w: unknown mode %v", ErrInjected, f.Mode)
	}
}

// ProxyOptions tunes a TCP fault proxy.
type ProxyOptions struct {
	// Delay is added once per connection, before any bytes flow.
	Delay time.Duration
	// ResetEvery, when positive, abruptly closes every Nth connection
	// as soon as it is accepted.
	ResetEvery int
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

// Proxy relays TCP connections to a target with injected faults — the
// between-processes counterpart of RoundTripper.
type Proxy struct {
	ln     net.Listener
	target string
	opt    ProxyOptions
	conns  atomic.Int64
}

// NewProxy listens on addr (e.g. "127.0.0.1:0") relaying to target.
func NewProxy(addr, target string, opt ProxyOptions) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chaostest: %w", err)
	}
	return &Proxy{ln: ln, target: target, opt: opt}, nil
}

// Addr returns the proxy's bound address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) logf(format string, args ...any) {
	if p.opt.Logf != nil {
		p.opt.Logf(format, args...)
	}
}

// Serve accepts and relays until ctx is cancelled. Before it returns it
// closes every connection still being relayed and waits for the relays,
// so none of them logs after Serve has returned.
func (p *Proxy) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	var relays sync.WaitGroup
	defer relays.Wait()
	defer cancel()
	context.AfterFunc(ctx, func() { p.ln.Close() })
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		n := p.conns.Add(1)
		if p.opt.ResetEvery > 0 && n%int64(p.opt.ResetEvery) == 0 {
			p.logf("chaosproxy: conn %d: reset", n)
			conn.Close()
			continue
		}
		relays.Add(1)
		go func() {
			defer relays.Done()
			p.relay(ctx, n, conn)
		}()
	}
}

// relay pipes one connection both ways, with the configured delay,
// until both directions end or ctx is cancelled.
func (p *Proxy) relay(ctx context.Context, id int64, client net.Conn) {
	defer client.Close()
	if p.opt.Delay > 0 {
		p.logf("chaosproxy: conn %d: delaying %v", id, p.opt.Delay)
		select {
		case <-ctx.Done():
			return
		case <-time.After(p.opt.Delay):
		}
	}
	var dialer net.Dialer
	server, err := dialer.DialContext(ctx, "tcp", p.target)
	if err != nil {
		p.logf("chaosproxy: conn %d: dial %s: %v", id, p.target, err)
		return
	}
	defer server.Close()
	// Cancellation closes both ends, which ends both copies.
	defer context.AfterFunc(ctx, func() {
		client.Close()
		server.Close()
	})()
	var wg sync.WaitGroup
	wg.Add(2)
	halfClose := func(dst, src net.Conn) {
		defer wg.Done()
		io.Copy(dst, src)
		// Propagate EOF without killing the reverse direction.
		if t, ok := dst.(*net.TCPConn); ok {
			t.CloseWrite()
		}
	}
	go halfClose(server, client)
	go halfClose(client, server)
	wg.Wait()
	p.logf("chaosproxy: conn %d: closed", id)
}
