// Package obs is the run-level observability layer for the long-running
// commands (c3soak, c3serve, c3worker, c3check, c3bench): live
// introspection of a sweep in flight, a durable record of every
// invocation, and the shutdown and exit-code conventions they share
// (Interrupt, ExitCode).
//
// It adds three facilities on top of internal/trace (which observes one
// simulated system from the inside):
//
//   - Tracker: a concurrency-safe progress model of a sweep — total and
//     completed item counts, in-flight item labels, failure count, ETA.
//     It implements litmus.SoakObserver, so a soak sweep's slots feed it
//     directly (c3check drives it per test), and it is the data source
//     for both the statusz server and the stderr heartbeat.
//
//   - Server: an opt-in HTTP endpoint (-statusz :port) serving a JSON
//     snapshot of the run (/statusz), the aggregate metrics registry
//     (/metricsz), net/http/pprof, and expvar. Everything the server
//     reads while the run executes must be concurrency-safe (Tracker is;
//     registries served live must read atomics, not raw simulator
//     counters).
//
//   - Ledger: an append-only JSONL manifest, one record per invocation —
//     spec, seeds, workers, code version, wall time, final metrics dump,
//     verdict — so sweeps become replayable, diffable artifacts. Each
//     tool writes its whole-run record through AppendRun. A sweep's
//     per-row checkpoint records carry a content-addressed row_key —
//     the row's spec, seed and code version — which c3soak -resume and
//     the campaign service's journal (internal/campaign) both replay.
//
// Nothing in this package runs on a simulator hot path: the Tracker is
// touched once per campaign, the server only on demand, the ledger once
// per process.
package obs

import (
	"runtime"
	"runtime/debug"
)

// VersionInfo identifies the code that produced a run, read from the
// binary's embedded build info (debug/buildinfo). VCS fields are empty
// when the binary was built outside a checkout (e.g. `go run` of a
// non-VCS tree or test binaries).
type VersionInfo struct {
	// Go is the toolchain version ("go1.22.x").
	Go string `json:"go"`
	// Module is the main module's version ("(devel)" for builds from a
	// working tree).
	Module string `json:"module,omitempty"`
	// Revision is the VCS commit hash, when stamped.
	Revision string `json:"revision,omitempty"`
	// Dirty reports uncommitted changes in the build's working tree.
	Dirty bool `json:"dirty,omitempty"`
}

// Version reads the running binary's build identity.
func Version() VersionInfo {
	v := VersionInfo{Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" {
		v.Module = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Dirty = s.Value == "true"
		}
	}
	return v
}
