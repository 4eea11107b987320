// Package campaign is the fault-tolerant distributed layer of the soak
// sweep: a coordinator that expands a sweep into a shard-by-seed job
// queue, hands shards to worker processes under time-bounded leases,
// tracks worker liveness via heartbeats, and merges streamed results
// into a report byte-identical to a single-process c3soak run.
//
// A sweep has one description, litmus.SoakConfig: SweepFlags parses the
// shared c3soak/c3serve flags into it, RunSoak runs it, and the
// coordinator serves it to its workers as JSON on /spec. Coordinator and
// workers each expand it once with litmus.Campaigns, and a lease names
// its shard by the index into that expansion, plus the row label the
// worker checks against its own.
//
// The robustness argument, end to end:
//
//   - At-least-once execution. The coordinator serves the same
//     litmus.Queue RunSoak drains in process. A lease that expires
//     (worker killed, hung, or partitioned) requeues its shard with
//     capped exponential backoff, and so does an attempt the worker
//     hands back failed (a task-deadline cut, a panic); both spend the
//     sweep's one retry budget, after which the shard becomes a loud
//     error row instead of looping forever. A worker that was merely
//     slow may still finish and submit — duplicates are safe because
//     every shard is seed-deterministic: any executor produces the same
//     row bytes, and the coordinator keeps only the first.
//
//   - Content-addressed dedup. Results are keyed by the c3-run/v1
//     row_key — "<test>/<plan>/seed<seed>|<config+code fingerprint>" —
//     the exact key the single-process resume cache uses. The
//     coordinator rejects results whose fingerprint suffix differs from
//     its own (a mismatched worker binary), so a merged report can only
//     contain rows the coordinator's own binary would have produced.
//
//   - Durable journal = the ledger. Every accepted row is appended to
//     the same O_APPEND JSONL ledger c3soak checkpoints into, before it
//     is acknowledged. A coordinator restart replays the journal
//     through the lenient reader (torn-tail tolerant) and re-queues
//     only the missing shards; `c3soak -resume` can equally finish a
//     sweep a dead coordinator started, and vice versa.
//
//   - Byte-identical merge. Shards are expanded by litmus.Campaigns in
//     the same canonical order RunSoak uses, every attempt runs through
//     the same litmus.Campaign.Attempt, results are slotted by job ID,
//     and the final table is rendered by the same SoakReport.Render — so
//     at any worker count, any kill schedule, and across coordinator
//     restarts, a completed campaign's report is byte-identical to an
//     uninterrupted single-process run.
package campaign

import (
	"fmt"

	"c3/internal/litmus"
	"c3/internal/obs"
)

// RowSuffix renders the configuration-and-code fingerprint appended to
// every row checkpoint key of sweep cfg — everything that shapes a
// row's bytes (protocols, MCMs, iteration count, code version) and
// nothing that cannot (worker counts, timeouts, observability). It must
// stay byte-compatible with the c3soak resume path: the coordinator
// journal and the single-process checkpoint ledger are the same file
// format, interchangeably resumable. A worker whose RowSuffix differs
// from the coordinator's runs different code (or a different
// toolchain), and its results must not merge.
func RowSuffix(cfg litmus.SoakConfig) string {
	v := obs.Version()
	dirty := ""
	if v.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("locals=%s,%s global=%s mcms=%s,%s iters=%d %s/%s%s",
		cfg.Locals[0], cfg.Locals[1], cfg.Global, cfg.MCMs[0], cfg.MCMs[1],
		cfg.Iters, v.Go, v.Revision, dirty)
}

// rowKey is the content-addressed identity of the row labeled label
// under suffix: the (sweep, seed, code-version) cache key c3soak's
// ledger checkpoints and the coordinator's journal share.
func rowKey(label, suffix string) string { return label + "|" + suffix }
