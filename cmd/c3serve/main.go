// Command c3serve is the distributed soak-campaign coordinator: it
// expands a sweep spec (litmus tests × fault plans × seeds) into a
// shard-by-seed job queue, hands shards to c3worker processes under
// time-bounded leases, tracks worker liveness via heartbeats, requeues
// shards whose workers die or whose attempts fail (capped backoff, an
// error row once -retries is spent), journals every accepted result to
// the c3-run/v1 ledger, and — when every shard is terminal — prints a
// report byte-identical to a single-process `c3soak` run of the same
// spec. It takes c3soak's sweep flags and schedules them on the same
// lease queue c3soak drains in process.
//
// Usage:
//
//	c3serve -addr 127.0.0.1:8423 -tests MP,SB -plans light -seeds 1,2,3
//	c3worker -coordinator http://127.0.0.1:8423 &   # × N, any machines
//	c3serve -addr :8423 -lease 10s -retries 3       # fleet tuning
//	c3serve -resume                                 # finish a dead coordinator's campaign
//
// Fault tolerance: a worker that is killed, hangs, or partitions simply
// stops heartbeating; its lease expires and the shard requeues with
// capped exponential backoff. A worker hands back an attempt that hit
// -task-timeout or panicked the same way. Both spend the shard's one
// budget, -retries; the next failure leaves a loud error row (TIMEOUT,
// the panic, or "quarantined" for expiries). Execution is at-least-once — a slow worker's
// late result is deduplicated through the content-addressed row key
// (spec, seed, code version), and seed determinism makes duplicates
// byte-identical, so correctness never depends on exactly-once
// delivery. The journal is the same O_APPEND ledger c3soak checkpoints
// into: `c3serve -resume` (or even `c3soak -resume`) finishes a
// campaign a dead coordinator started.
//
// Endpoints: /healthz (liveness probe), /statusz (queue + worker
// snapshot), /spec, /lease, /heartbeat, /result, /release, /results
// (streaming JSONL of accepted rows), /report.
//
// Shutdown: after the report prints, c3serve keeps answering "campaign
// complete" for -drain so idle workers exit 0; a SIGINT/SIGTERM then
// ends the drain early, and the run record and exit code are the
// campaign's own.
//
// Exit status: 0 campaign passed; 1 a silent violation, an aborted or
// quarantined shard, or a sweep timeout; 2 usage error; 3 interrupted
// by SIGINT/SIGTERM with accepted rows journaled — rerun with -resume.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"c3/internal/campaign"
	"c3/internal/obs"
)

func main() {
	var sweep campaign.SweepFlags
	sweep.Register(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:8423", "coordinator listen address")
	lease := flag.Duration("lease", campaign.DefaultLeaseTTL, "lease TTL: a worker silent this long loses its shard")
	drain := flag.Duration("drain", 2*time.Second, "after completion, keep answering \"campaign complete\" this long so idle workers exit 0 instead of \"coordinator lost\" (a signal ends it early)")
	flag.Parse()

	if *lease <= 0 {
		fmt.Fprintln(os.Stderr, "c3serve: -lease must be positive")
		os.Exit(obs.ExitUsage)
	}
	cfg, err := sweep.Config()
	failUsage(err)

	// Journal replay: shards with checkpointed rows (from a previous
	// coordinator, or from a single-process c3soak of the same sweep)
	// are born done and never leased.
	cfg.Completed, err = sweep.Completed("c3serve", cfg)
	failUsage(err)

	srv, err := campaign.StartServer(*addr, campaign.ServerConfig{
		Sweep:      cfg,
		LeaseTTL:   *lease,
		LedgerPath: sweep.Ledger,
	})
	failUsage(err)
	fmt.Fprintf(os.Stderr, "c3serve: coordinating on http://%s (healthz/statusz/results), %d shards, lease %v\n",
		srv.Addr(), srv.Queue().Snapshot().Total, *lease)

	// Graceful shutdown: the first SIGINT/SIGTERM stops handing out work
	// and flushes the partial report; accepted rows are already
	// journaled, so -resume finishes the campaign. After completion it
	// only cuts the drain short. A second signal kills.
	interrupt := obs.Interrupt("c3serve", "stopping gracefully; accepted rows are journaled")

	var timeoutC <-chan time.Time
	if sweep.Timeout > 0 {
		t := time.NewTimer(sweep.Timeout)
		defer t.Stop()
		timeoutC = t.C
	}

	start := time.Now()
	campaignDone := false
	select {
	case <-srv.Done():
		campaignDone = true
	case <-interrupt:
		// Rows marks unfinished shards INTERRUPTED; the report verdict
		// (and exit 3) follow from that.
	case <-timeoutC:
		// Stopped by the bound, unfinished shards read TIMEOUT.
		srv.Queue().Stop(sweep.Timeout)
		fmt.Fprintf(os.Stderr, "c3serve: campaign exceeded %v; flushing partial report\n", sweep.Timeout)
	}
	rep := srv.Report()
	fmt.Print(rep.Render())
	verdict := rep.Verdict()
	exit := obs.ExitCode(verdict)
	if campaignDone && *drain > 0 {
		// Linger with the campaign complete so idle workers see the
		// "done" answer (410) at their next lease poll and exit 0.
		t := time.NewTimer(*drain)
		select {
		case <-t.C:
		case <-interrupt:
			t.Stop()
		}
	}
	srv.Close()
	obs.AppendRun(sweep.Ledger, start, nil, obs.Record{
		Tool:    "c3serve",
		Spec:    obs.SpecFromFlags("addr", "ledger", "resume", "lease"),
		Seeds:   cfg.Seeds,
		Verdict: verdict,
		Exit:    exit,
		Extra:   map[string]any{"shards": len(rep.Runs)},
	})
	os.Exit(exit)
}

func failUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3serve:", err)
		os.Exit(obs.ExitUsage)
	}
}
