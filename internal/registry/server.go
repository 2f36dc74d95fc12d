package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/resultdb"
	"repro/internal/telemetry"
)

// maxRecordBytes bounds a PUT body (and, client-side, a response) at
// 32 MiB — generous headroom over the largest paper cell (fig3's
// 256-node FSI point serialises to well under a megabyte), while
// still capping what one request can make the server buffer.
const maxRecordBytes = 32 << 20

// ServerOptions tunes a registry server.
type ServerOptions struct {
	// GCInterval, when positive, runs a GC pass over the backing store
	// every interval with the GC policy.
	GCInterval time.Duration
	// GC is the eviction policy for periodic passes. The zero policy
	// makes them no-ops.
	GC resultdb.GCPolicy
	// Logf, when non-nil, receives one line per lifecycle event
	// (startup, GC passes, shutdown).
	Logf func(format string, args ...any)
	// Work, when non-nil, turns the server into a sweep coordinator:
	// the /v1/work lease API hands out this queue's batches. Nil
	// servers answer work requests with a typed 404.
	Work *WorkQueue
	// Journal, when non-nil, records one wall-clock "serve" span per
	// request, linked to the client attempt that caused it via the
	// propagated X-Hpc-Trace/X-Hpc-Span headers. Lease lifecycle events
	// are journaled by the WorkQueue's own Journal option.
	Journal *telemetry.FleetJournal
}

// Connection deadlines, so a stalled peer cannot pin server resources
// forever. The read/write bounds comfortably cover the largest
// permitted record at LAN throughput; heartbeats are tiny and
// re-establish connections freely.
const (
	readTimeout  = 2 * time.Minute
	writeTimeout = 2 * time.Minute
	idleTimeout  = 5 * time.Minute
)

// shutdownGrace bounds how long Serve waits for in-flight requests
// after its context is cancelled. In-flight PUTs commit within the
// grace window; the listener closes immediately, so no new work is
// admitted.
const shutdownGrace = 30 * time.Second

// Server exposes one resultdb.DirStore over the wire protocol. It is
// an http.Handler, so tests mount it on httptest and production wraps
// it in Serve for lifecycle management.
//
// Every request is observed: counted by route/method/status, timed
// into a latency histogram, and access-logged with a request ID
// through Logf. GET /v1/metrics exposes the whole registry in
// Prometheus text format.
type Server struct {
	store   *resultdb.DirStore
	opt     ServerOptions
	mux     *http.ServeMux
	metrics *telemetry.Registry
	reqID   atomic.Int64
}

// requestBuckets are the latency histogram bounds (seconds): local
// stores answer in microseconds, a loaded registry with a slow disk in
// tens of milliseconds.
var requestBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// NewServer wraps a directory store in the wire protocol.
func NewServer(store *resultdb.DirStore, opt ServerOptions) *Server {
	s := &Server{store: store, opt: opt, mux: http.NewServeMux(), metrics: telemetry.NewRegistry()}
	opt.Journal.CountDropsIn(s.metrics)
	s.mux.HandleFunc("GET /v1/schema", s.handleSchema)
	s.mux.HandleFunc("GET /v1/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /{$}", s.handleStatusPage)
	s.mux.HandleFunc("GET /v1/cells/{key}", s.handleGet)
	s.mux.HandleFunc("PUT /v1/cells/{key}", s.handlePut)
	s.mux.HandleFunc("GET /v1/work", s.handleWorkStatus)
	s.mux.HandleFunc("POST /v1/work/claim", s.handleWorkClaim)
	s.mux.HandleFunc("POST /v1/work/heartbeat", s.handleWorkHeartbeat)
	s.mux.HandleFunc("POST /v1/work/complete", s.handleWorkComplete)
	return s
}

// routeOf maps a request path to its metric label, so cell keys never
// explode the label space.
func routeOf(path string) string {
	switch {
	case path == "/v1/schema":
		return "schema"
	case path == "/v1/manifest":
		return "manifest"
	case path == "/v1/metrics":
		return "metrics"
	case path == "/v1/status" || path == "/":
		return "status"
	case strings.HasPrefix(path, "/v1/cells/"):
		return "cells"
	case path == "/v1/work/claim":
		// A claim may be held until work frees up; its own label
		// keeps that hold out of the other work calls' latency.
		return "claim"
	case path == "/v1/work" || strings.HasPrefix(path, "/v1/work/"):
		return "work"
	default:
		return "other"
	}
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler: the observability middleware
// around the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.reqID.Add(1)
	route := routeOf(r.URL.Path)
	if r.Method == http.MethodPut && route == "cells" {
		inflight := s.metrics.Gauge("registry_inflight_puts", "PUT requests currently being processed.")
		inflight.Add(1)
		defer inflight.Add(-1)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	trace, parent := r.Header.Get(headerTrace), r.Header.Get(headerSpan)
	spanStart := s.opt.Journal.Now()
	//lint:allow wallclock -- request latency is operator telemetry; it never reaches records or figures
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	//lint:allow wallclock -- request latency is operator telemetry; it never reaches records or figures
	elapsed := time.Since(start)
	s.metrics.Counter("registry_requests_total", "Requests by route, method, and status.",
		telemetry.L("route", route), telemetry.L("method", r.Method),
		telemetry.L("status", strconv.Itoa(sw.status))).Inc()
	s.metrics.Histogram("registry_request_seconds", "Request latency by route.",
		requestBuckets, telemetry.L("route", route)).Observe(elapsed.Seconds())
	outcome := "ok"
	if sw.status >= 400 {
		outcome = "error"
	}
	s.opt.Journal.Emit(telemetry.FleetEvent{
		Kind: telemetry.FleetSpan, Name: "serve", Span: s.opt.Journal.NewSpan(),
		Parent: parent, Trace: trace,
		StartNs: spanStart, EndNs: s.opt.Journal.Now(),
		Outcome: outcome, Label: route,
		Detail: fmt.Sprintf("%s %s: %d", r.Method, r.URL.Path, sw.status),
	})
	if trace != "" || parent != "" {
		s.logf("registry: req %d: %s %s from %s: %d (%v) [%s/%s]",
			id, r.Method, r.URL.Path, r.RemoteAddr, sw.status, elapsed.Round(time.Microsecond), trace, parent)
		return
	}
	s.logf("registry: req %d: %s %s from %s: %d (%v)",
		id, r.Method, r.URL.Path, r.RemoteAddr, sw.status, elapsed.Round(time.Microsecond))
}

// storeOp counts one backing-store operation on the request path.
func (s *Server) storeOp(op string) {
	s.metrics.Counter("registry_store_ops_total", "Backing-store operations by kind.",
		telemetry.L("op", op)).Inc()
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// writeJSON sends one JSON body with a status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// rejectSchema enforces the handshake on stamped requests: a client
// that advertises a different schema gets a typed 409 instead of
// records it would misread. Requests without the header (curl, health
// checks) pass — the handshake protects clients, the stamped records
// protect the store.
func (s *Server) rejectSchema(w http.ResponseWriter, r *http.Request) bool {
	got := r.Header.Get(headerSchema)
	if got == "" || got == resultdb.SchemaVersion {
		return false
	}
	writeJSON(w, http.StatusConflict, wireError{
		Code:         codeSchemaMismatch,
		Error:        fmt.Sprintf("client schema %s does not match server", got),
		ServerSchema: resultdb.SchemaVersion,
	})
	return true
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wireSchema{Schema: resultdb.SchemaVersion})
}

// handleMetrics renders the metrics registry in Prometheus text
// exposition format. The scrape itself is counted by the middleware
// after it is served, so the numbers a scrape reports never include
// that scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WriteProm(w); err != nil {
		s.logf("registry: metrics write failed: %v", err)
	}
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if s.rejectSchema(w, r) {
		return
	}
	keys := s.store.Keys()
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, wireManifest{Schema: resultdb.SchemaVersion, Keys: keys})
}

// rejectKey refuses any cell path that is not a well-formed
// fingerprint. The store layer re-checks, but rejecting here keeps a
// percent-encoded "../" from ever reaching a filesystem join and
// gives the caller a typed 400 instead of a silent miss.
func rejectKey(w http.ResponseWriter, key string) bool {
	if resultdb.ValidKey(key) {
		return false
	}
	writeJSON(w, http.StatusBadRequest, wireError{
		Code:  codeBadRecord,
		Error: fmt.Sprintf("invalid cell key %q (want a 64-hex fingerprint)", key),
	})
	return true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.rejectSchema(w, r) {
		return
	}
	key := r.PathValue("key")
	if rejectKey(w, key) {
		return
	}
	ent, ok, err := s.store.Lookup(key)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, wireError{Code: "internal", Error: err.Error()})
		return
	}
	if !ok {
		s.storeOp("miss")
		writeJSON(w, http.StatusNotFound, wireError{Code: codeNotFound, Error: "no record for " + key})
		return
	}
	if ent.Err != "" {
		s.storeOp("neg_hit")
	} else {
		s.storeOp("hit")
	}
	writeJSON(w, http.StatusOK, resultdb.Record{
		Schema: resultdb.SchemaVersion,
		Key:    key,
		Result: ent.Result,
		Error:  ent.Err,
	})
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if s.rejectSchema(w, r) {
		return
	}
	key := r.PathValue("key")
	if rejectKey(w, key) {
		return
	}
	// MaxBytesReader, unlike a bare LimitReader, also stops the
	// connection from absorbing the rest of an oversized body and asks
	// the peer to close — one malicious or misbuilt record cannot make
	// the server buffer without bound.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRecordBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, wireError{
				Code:  codeTooLarge,
				Error: fmt.Sprintf("record exceeds the %d-byte limit", maxRecordBytes),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, wireError{Code: codeBadRecord, Error: err.Error()})
		return
	}
	rec, err := resultdb.DecodeRecord(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wireError{Code: codeBadRecord, Error: "undecodable record: " + err.Error()})
		return
	}
	if rec.Key != key {
		writeJSON(w, http.StatusBadRequest, wireError{
			Code:  codeBadRecord,
			Error: fmt.Sprintf("record key %s does not match path %s", rec.Key, key),
		})
		return
	}
	if rec.Schema != resultdb.SchemaVersion {
		writeJSON(w, http.StatusConflict, wireError{
			Code:         codeSchemaMismatch,
			Error:        fmt.Sprintf("record schema %s does not match server", rec.Schema),
			ServerSchema: resultdb.SchemaVersion,
		})
		return
	}
	if rec.Error != "" {
		err = s.store.PutError(key, rec.Error)
	} else {
		err = s.store.Put(key, rec.Result)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, wireError{Code: "internal", Error: err.Error()})
		return
	}
	if rec.Error != "" {
		s.storeOp("put_error")
	} else {
		s.storeOp("put")
	}
	w.WriteHeader(http.StatusNoContent)
}

// httpServer builds the production http.Server around the handler:
// connection deadlines keep a stalled or malicious peer from pinning
// resources forever. Factored out so tests can assert the policy
// without binding a socket.
func (s *Server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Serve runs the registry on ln until ctx is cancelled, then shuts
// down gracefully: the listener closes, in-flight requests — PUT
// commits included — get shutdownGrace to finish, and only then do
// stragglers get cut. Periodic GC, when configured, runs on the same
// lifecycle. Returns nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Every helper goroutine hangs off this derived context, which is
	// also cancelled when srv.Serve fails on its own (fd exhaustion, a
	// closed listener) — a fatal serve error must tear the GC loop
	// down too, not wedge waiting for a signal that already happened.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv := s.httpServer()
	// Requests inherit ctx, so a held claim answers as soon as the
	// shutdown begins instead of pinning it for the rest of its hold.
	srv.BaseContext = func(net.Listener) context.Context { return ctx }

	gcDone := make(chan struct{})
	if s.opt.GCInterval > 0 && s.opt.GC.Bounded() {
		go func() {
			defer close(gcDone)
			//lint:allow wallclock -- GC cadence is server lifecycle, outside any simulated result
			t := time.NewTicker(s.opt.GCInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-t.C:
					rep, err := s.store.GC(now, s.opt.GC)
					if err != nil {
						s.metrics.Counter("registry_gc_runs_total", "GC passes by outcome.",
							telemetry.L("outcome", "error")).Inc()
						s.logf("registry: gc failed: %v", err)
						continue
					}
					s.metrics.Counter("registry_gc_runs_total", "GC passes by outcome.",
						telemetry.L("outcome", "ok")).Inc()
					s.metrics.Counter("registry_gc_evicted_total", "Records evicted by GC.").Add(float64(rep.Evicted))
					s.metrics.Counter("registry_gc_evicted_bytes_total", "Bytes evicted by GC.").Add(float64(rep.EvictedBytes))
					if rep.Evicted > 0 {
						s.logf("registry: %s", rep)
					}
				}
			}
		}()
	} else {
		close(gcDone)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.logf("registry: shutting down (committing in-flight requests)")
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		shutdownErr <- srv.Shutdown(grace)
	}()

	err := srv.Serve(ln)
	graceful := errors.Is(err, http.ErrServerClosed)
	cancel() // release the helpers before waiting on them
	if graceful {
		err = <-shutdownErr // graceful path: report Shutdown's verdict instead
	}
	<-gcDone
	return err
}

// ListenAndServe binds addr and calls Serve. The bound address is
// reported through Logf before serving, so operators (and the CI
// smoke test) can wait for readiness.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	s.logf("registry: listening on %s (schema %s, store %s)", ln.Addr(), resultdb.SchemaVersion, s.store.Dir())
	return s.Serve(ctx, ln)
}
