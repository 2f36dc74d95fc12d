package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/resultdb"
	"repro/internal/telemetry"
)

// The store family: opening whatever store the flags configure, the
// serve verb that exposes one over HTTP, and the gc verb that trims one.

// lineLogf adapts w to the Logf hooks of the store, registry and worker
// options: one formatted line per call.
func lineLogf(w io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
}

// openStore assembles the configured store: a directory, a registry
// client, or — with both flags — a tiered combination where the
// directory caches registry reads. Nil when no store is configured.
// Under -v, the registry client logs every retried request to stderr
// — a retry that eventually succeeds is otherwise invisible, leaving
// a flaky link undiagnosed (the count also lands in the store line).
func openStore(cfg cliConfig) (resultdb.Store, error) {
	var local *resultdb.DirStore
	if cfg.cacheDir != "" {
		var err error
		if local, err = resultdb.Open(cfg.cacheDir); err != nil {
			return nil, err
		}
	}
	if cfg.cacheURL == "" {
		if local == nil {
			return nil, nil // an untyped nil: callers test the interface
		}
		return local, nil
	}
	opt := registry.ClientOptions{}
	if cfg.verbose {
		opt.Logf = lineLogf(os.Stderr)
	}
	remote, err := registry.Dial(cfg.cacheURL, opt)
	if err != nil {
		if local != nil {
			local.Close()
		}
		return nil, err
	}
	if local != nil {
		return registry.NewTiered(local, remote), nil
	}
	return remote, nil
}

// serveUntilSignal is the serve verb as the binary runs it: until
// SIGINT/SIGTERM.
func serveUntilSignal(w io.Writer, cfg cliConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, w, cfg)
}

// runServe exposes -cache-dir as a result registry until ctx is
// cancelled, then shuts down gracefully with in-flight PUTs committed.
func runServe(ctx context.Context, w io.Writer, cfg cliConfig) error {
	if cfg.cacheDir == "" {
		return usageError("serve needs -cache-dir: the registry serves a directory store")
	}
	if cfg.cacheURL != "" {
		return usageError("serve exposes -cache-dir; it cannot chain to another registry via -cache-url")
	}
	gcPolicy := resultdb.GCPolicy{MaxBytes: cfg.maxBytes, MaxAge: cfg.maxAge}
	if cfg.gcInterval > 0 && !gcPolicy.Bounded() {
		return usageError("-gc-interval needs a bound: -max-bytes and/or -max-age (an unbounded policy collects nothing)")
	}
	if cfg.sweepStudy != "" {
		// QueueOptions' zero values mean "default" for library callers;
		// a flag the user typed must not be swapped for another value.
		if cfg.leaseBatch < 1 {
			return usageError(fmt.Sprintf("-lease-batch must be ≥ 1, got %d", cfg.leaseBatch))
		}
		if cfg.leaseTTL <= 0 {
			return usageError(fmt.Sprintf("-lease-ttl must be positive, got %v", cfg.leaseTTL))
		}
	}
	store, err := resultdb.Open(cfg.cacheDir)
	if err != nil {
		return err
	}
	defer store.Close()
	if cfg.pprofAddr != "" {
		// Opt-in profiling endpoint on its own address, so profiling
		// traffic never mixes with (or is exposed on) the registry port.
		// The listener lives for the process; serve exits by signal.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(w, "pprof: listening on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, mux); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}
	srvOpt := registry.ServerOptions{
		GCInterval: cfg.gcInterval,
		GC:         gcPolicy,
		Logf:       lineLogf(w),
	}
	var journal *telemetry.FleetJournal
	if cfg.fleetlog != "" {
		journal, err = telemetry.OpenFleetJournal(cfg.fleetlog, "coordinator")
		if err != nil {
			return err
		}
		defer journal.Close()
		srvOpt.Journal = journal
	}
	if cfg.sweepStudy != "" {
		// Coordinator mode: enumerate the study against the store so
		// already-committed cells are never issued (a restart resumes
		// with exactly the un-committed remainder), then hand out the
		// rest as leased batches on /v1/work.
		work, err := buildWorkQueue(w, store, cfg, journal)
		if err != nil {
			return err
		}
		srvOpt.Work = work
	}
	return registry.NewServer(store, srvOpt).ListenAndServe(ctx, cfg.listen)
}

// runGC runs one eviction pass over -cache-dir.
func runGC(w io.Writer, cfg cliConfig) error {
	if cfg.cacheDir == "" {
		return usageError("gc needs -cache-dir: it collects a directory store")
	}
	pol := resultdb.GCPolicy{MaxBytes: cfg.maxBytes, MaxAge: cfg.maxAge}
	if !pol.Bounded() {
		return usageError("gc needs a bound: -max-bytes and/or -max-age")
	}
	store, err := resultdb.Open(cfg.cacheDir)
	if err != nil {
		return err
	}
	defer store.Close()
	rep, err := store.GC(time.Now(), pol)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rep)
	return nil
}
