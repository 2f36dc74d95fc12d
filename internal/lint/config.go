package lint

// Config names the packages each invariant governs. Paths are import
// paths; a trailing "/..." matches the package and everything under
// it. The zero config checks nothing; DefaultConfig knows this
// repository's layout, and tests construct fixture-relative configs.
type Config struct {
	// Module is the module path; packages outside it are never
	// analyzed (their behaviour is visible only through the hardwired
	// knowledge in the analyzers, e.g. that sync.Mutex.Lock blocks).
	Module string

	// Wallclock lists the determinism-critical packages where real
	// time (time.Now, time.Sleep, timers) is forbidden: anything whose
	// output feeds figures, fingerprints, or the virtual clock.
	Wallclock []string

	// MapOrder lists the packages whose results feed serialization,
	// fingerprinting, report rendering, or manifest/JSON encoding:
	// map iteration there must be order-insensitive or sorted.
	MapOrder []string

	// RandSource lists the packages (tests included) where the global
	// math/rand source is forbidden in favour of explicitly seeded
	// *rand.Rand values.
	RandSource []string

	// KernelPure lists the packages whose code runs on simulated-rank
	// context and therefore may never touch raw goroutines, channels,
	// select, or blocking sync primitives — only vtime primitives.
	// The vtime kernel itself is deliberately absent: it is the one
	// place that implements those primitives with real ones.
	KernelPure []string

	// KernelEntries name the functions that accept a rank body and
	// hand it to the kernel ("pkg/path.Func" or "pkg/path.Type.Method").
	// Function-typed arguments at their call sites must be free of
	// raw-concurrency taint.
	KernelEntries []string

	// KernelImpl lists the packages that implement the kernel's
	// primitives: calls into them are the sanctioned way to block, so
	// they carry no taint, and their own bodies are not inspected —
	// the kernel is built out of the very primitives it forbids its
	// clients.
	KernelImpl []string

	// WireRoots name struct types ("pkg/path.Type") that cross the
	// wire or the store; they and every struct reachable from their
	// fields must json-tag all exported fields.
	WireRoots []string

	// WireMixed lists the packages where the mixed-tag rule applies:
	// a struct with at least one json-tagged exported field must tag
	// all of them (an untagged addition is a silent schema change).
	WireMixed []string
}

// DefaultConfig is the repository's own policy.
func DefaultConfig() *Config {
	// The determinism-critical core: the kernel and its clients, the
	// physics, and everything between a cell's identity and its bytes
	// on disk.
	critical := []string{
		"repro/internal/vtime",
		"repro/internal/mpi",
		"repro/internal/omp",
		"repro/internal/fabric",
		"repro/internal/experiments",
		"repro/internal/scenario",
		"repro/internal/core",
		"repro/internal/alya",
		"repro/internal/krylov",
		"repro/internal/navier",
		"repro/internal/solid",
		"repro/internal/mesh",
		"repro/internal/field",
		"repro/internal/linalg",
		"repro/internal/resultdb",
		// telemetry's trace sink runs inside the kernel's callbacks; its
		// host-side Progress reporter samples the wall clock only under
		// explicit //lint:allow wallclock escapes.
		"repro/internal/telemetry",
		// registry carries lease deadlines, heartbeat cadence, and retry
		// backoff — operational wall time that must stay behind explicit
		// //lint:allow wallclock escapes so it can never leak into
		// simulated results. The chaostest subpackage (exact match only)
		// stays out: fault injection is wall time by design.
		"repro/internal/registry",
		// profile attributes virtual time from kernel trace events; any
		// wall-clock read there would corrupt the attribution.
		"repro/internal/profile",
		// fleettrace reconstructs timelines purely from journal bytes;
		// reading the wall clock there would break byte-determinism.
		"repro/internal/fleettrace",
	}
	return &Config{
		Module:    "repro",
		Wallclock: critical,
		MapOrder: []string{
			"repro",
			"repro/internal/core",
			"repro/internal/resultdb",
			"repro/internal/report",
			"repro/internal/scenario",
			"repro/internal/registry",
			"repro/internal/experiments",
			"repro/internal/telemetry",
			"repro/internal/profile",
			"repro/internal/fleettrace",
			"repro/cmd/...",
		},
		RandSource: []string{"repro/..."},
		KernelPure: []string{
			"repro/internal/mpi",
			"repro/internal/alya",
		},
		KernelEntries: []string{
			"repro/internal/mpi.Run",
			"repro/internal/vtime.Scheduler.Run",
		},
		KernelImpl: []string{"repro/internal/vtime"},
		WireRoots: []string{
			"repro/internal/core.SavedResult",
			"repro/internal/core.canonCell",
			"repro/internal/resultdb.record",
			"repro/internal/registry.wireRecord",
			"repro/internal/registry.wireError",
			"repro/internal/registry.wireSchema",
			"repro/internal/registry.wireManifest",
			"repro/internal/registry.wireClaimRequest",
			"repro/internal/registry.wireClaim",
			"repro/internal/registry.wireLeaseRequest",
			"repro/internal/registry.WorkStatus",
			"repro/internal/registry.FleetStatus",
			"repro/internal/profile.CellProfile",
			"repro/internal/profile.DiffReport",
			"repro/internal/scenario.Spec",
			"repro/internal/telemetry.chromeTrace",
			"repro/internal/telemetry.FleetEvent",
			"repro/internal/fleettrace.Run",
			"repro/internal/fleettrace.WorkerAttribution",
			"repro/internal/fleettrace.AttribDiff",
		},
		WireMixed: []string{"repro/..."},
	}
}

// matchPkg reports whether path matches any pattern: exact, or a
// "prefix/..." subtree (which also matches the prefix itself).
func matchPkg(patterns []string, path string) bool {
	for _, pat := range patterns {
		if pat == path {
			return true
		}
		if prefix, ok := cutSuffix(pat, "/..."); ok {
			if path == prefix || (len(path) > len(prefix) && path[:len(prefix)] == prefix && path[len(prefix)] == '/') {
				return true
			}
		}
	}
	return false
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)], true
	}
	return s, false
}

// inModule reports whether a (variant-stripped) package path belongs
// to the configured module.
func (c *Config) inModule(path string) bool {
	return path == c.Module || (len(path) > len(c.Module) && path[:len(c.Module)] == c.Module && path[len(c.Module)] == '/')
}
