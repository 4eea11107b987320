// Command c3worker executes soak-campaign shards for a c3serve
// coordinator: it probes the coordinator's /healthz, fetches the sweep
// spec, verifies its own code fingerprint matches (a mismatched binary
// must not contribute rows), then loops — lease a shard, run the
// (test, plan, seed) campaign in-process, stream the result row back —
// while a background heartbeat keeps its leases alive. Each lease is one
// attempt: a failed one (a -task-timeout cut or a panic) goes back to
// the coordinator, whose -retries budget decides what happens next. Run as many
// workers as you like, on as many machines as reach the coordinator;
// the merged report is byte-identical at any worker count.
//
// Usage:
//
//	c3worker -coordinator http://127.0.0.1:8423
//	c3worker -coordinator http://10.0.0.1:8423 -j 4 -name rack2
//
// Fault tolerance: if this process is killed, its leases expire and the
// coordinator requeues the shards — nothing is lost but the wasted
// attempt. If the coordinator disappears, the worker re-probes /healthz
// for a grace period and exits 1 only when it stays down. SIGINT/
// SIGTERM release held leases back to the queue (no failure penalty)
// and exit 3.
//
// Exit status: 0 the campaign completed (no work left); 1 coordinator
// unreachable past the probe grace period, or an internal error;
// 2 usage error; 3 interrupted by SIGINT/SIGTERM with leases released.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"c3/internal/campaign"
	"c3/internal/obs"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8423", "coordinator base URL")
	name := flag.String("name", "", "worker name for leases and /statusz (default host:pid)")
	slots := flag.Int("j", 1, "shards to run concurrently")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle poll interval when no shard is leasable")
	probeTimeout := flag.Duration("probe-timeout", 30*time.Second, "how long to re-probe an unreachable coordinator before exiting")
	flag.Parse()

	if *coordinator == "" || *slots <= 0 || *poll <= 0 || *probeTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "c3worker: -coordinator, -j, -poll and -probe-timeout must be set and positive")
		os.Exit(obs.ExitUsage)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM interrupts in-flight
	// shards at their next poll and releases held leases (no penalty);
	// a second signal kills.
	interrupt := obs.Interrupt("c3worker", "releasing leases and stopping")

	err := campaign.RunWorker(campaign.WorkerConfig{
		Coordinator:  *coordinator,
		Name:         *name,
		Slots:        *slots,
		Poll:         *poll,
		ProbeTimeout: *probeTimeout,
		Interrupt:    interrupt,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c3worker: "+format+"\n", args...)
		},
	})
	switch {
	case err == nil:
		os.Exit(obs.ExitPass)
	case errors.Is(err, campaign.ErrWorkerInterrupted):
		os.Exit(obs.ExitResumable)
	default:
		fmt.Fprintln(os.Stderr, "c3worker:", err)
		os.Exit(obs.ExitFail)
	}
}
