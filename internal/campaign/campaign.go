// Package campaign is the fault-tolerant distributed layer of the soak
// sweep: a coordinator that expands a sweep spec into a shard-by-seed
// job queue, hands shards to worker processes under time-bounded
// leases, tracks worker liveness via heartbeats, and merges streamed
// results into a report byte-identical to a single-process c3soak run.
//
// The robustness argument, end to end:
//
//   - At-least-once execution. The coordinator serves the same
//     litmus.Queue RunSoak drains in process. A lease that expires
//     (worker killed, hung, or partitioned) requeues its shard with
//     capped exponential backoff, and so does an attempt the worker
//     hands back failed (a task-deadline cut, a panic); both spend the
//     spec's one retry budget, after which the shard becomes a loud
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
	"time"

	"c3/internal/cpu"
	"c3/internal/faults"
	"c3/internal/litmus"
	"c3/internal/obs"
)

// PlanRef is the wire form of a fault plan: the display name reports
// use ("light", or the raw spec when unnamed) plus the parseable spec
// string, which round-trips through faults.ParsePlan on the worker.
type PlanRef struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// Spec is the wire form of a sweep: everything a worker needs to run
// any shard of it. It is always exchanged normalized (defaults applied,
// MCMs canonical), so coordinator and workers agree on the job list and
// on the row-key fingerprint byte-for-byte.
type Spec struct {
	Tests  []string  `json:"tests"`
	Plans  []PlanRef `json:"plans"`
	Seeds  []int64   `json:"seeds"`
	Iters  int       `json:"iters"`
	Locals [2]string `json:"locals"`
	Global string    `json:"global"`
	MCMs   [2]string `json:"mcms"`
	// TaskTimeoutMS bounds each attempt on whichever worker runs it, and
	// Retries is each shard's failure budget, which the queue applies
	// (see litmus.SoakConfig); milliseconds so the JSON is
	// human-auditable.
	TaskTimeoutMS int64 `json:"task_timeout_ms,omitempty"`
	Retries       int   `json:"retries,omitempty"`
}

// NewSpec normalizes a sweep description into a Spec: defaults applied,
// plan specs resolved (preset names or raw fault specs), MCM names
// canonicalized. The plans keep their given names for report rows.
func NewSpec(tests []string, planSpecs []string, seeds []int64, iters int,
	locals [2]string, global string, mcms [2]cpu.MCM,
	taskTimeout time.Duration, retries int) (*Spec, error) {

	base := litmus.SoakConfig{Tests: tests, Seeds: seeds, Iters: iters,
		Locals: locals, Global: global}.WithDefaults()

	var plans []PlanRef
	if len(planSpecs) == 0 {
		for _, p := range litmus.DefaultPlans() {
			plans = append(plans, PlanRef{Name: p.Name, Spec: p.Plan.String()})
		}
	}
	for _, s := range planSpecs {
		p, err := litmus.ResolvePlan(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		plans = append(plans, PlanRef{Name: p.Name, Spec: p.Plan.String()})
	}

	spec := &Spec{
		Tests:   base.Tests,
		Plans:   plans,
		Seeds:   base.Seeds,
		Iters:   base.Iters,
		Locals:  base.Locals,
		Global:  base.Global,
		MCMs:    [2]string{mcms[0].String(), mcms[1].String()},
		Retries: retries,
	}
	if taskTimeout > 0 {
		spec.TaskTimeoutMS = taskTimeout.Milliseconds()
	}
	if _, err := spec.SoakConfig(); err != nil { // validate tests/plans/MCMs now
		return nil, err
	}
	return spec, nil
}

// parseMCMs decodes the canonical MCM names back to cpu values.
func (s *Spec) parseMCMs() ([2]cpu.MCM, error) {
	var out [2]cpu.MCM
	for i, name := range s.MCMs {
		m, err := cpu.ParseMCM(name)
		if err != nil {
			return out, fmt.Errorf("campaign: %w", err)
		}
		out[i] = m
	}
	return out, nil
}

// namedPlans decodes the wire plans back to litmus form.
func (s *Spec) namedPlans() ([]litmus.NamedPlan, error) {
	var out []litmus.NamedPlan
	for _, p := range s.Plans {
		plan, err := faults.ParsePlan(p.Spec)
		if err != nil {
			return nil, fmt.Errorf("campaign: plan %q (%q): %w", p.Name, p.Spec, err)
		}
		out = append(out, litmus.NamedPlan{Name: p.Name, Plan: plan})
	}
	return out, nil
}

// SoakConfig materializes the spec as the litmus sweep config a
// single-process run of the same campaign would use (no workers,
// interrupt, or observer wired — callers add those).
func (s *Spec) SoakConfig() (litmus.SoakConfig, error) {
	mcms, err := s.parseMCMs()
	if err != nil {
		return litmus.SoakConfig{}, err
	}
	plans, err := s.namedPlans()
	if err != nil {
		return litmus.SoakConfig{}, err
	}
	cfg := litmus.SoakConfig{
		Tests:       s.Tests,
		Plans:       plans,
		Seeds:       s.Seeds,
		Iters:       s.Iters,
		Locals:      s.Locals,
		Global:      s.Global,
		MCMs:        mcms,
		TaskTimeout: time.Duration(s.TaskTimeoutMS) * time.Millisecond,
		Retries:     s.Retries,
	}
	if _, err := litmus.Campaigns(cfg); err != nil { // surfaces unknown tests
		return litmus.SoakConfig{}, err
	}
	return cfg, nil
}

// Job is one queued shard: a (test, plan, seed) cell plus its stable
// queue position. ID is the index into the canonical litmus.Campaigns
// order — the merge slot its result row lands in.
type Job struct {
	ID   int     `json:"id"`
	Test string  `json:"test"`
	Plan PlanRef `json:"plan"`
	Seed int64   `json:"seed"`
}

// Label renders the shard's stable identity ("MP/light/seed1") — the
// RowLabel the report, the checkpoint keys, and resume all share.
func (j Job) Label() string { return litmus.RowLabel(j.Test, j.Plan.Name, j.Seed) }

// Jobs expands the spec into the canonical shard list.
func (s *Spec) Jobs() ([]Job, error) {
	_, camps, err := s.campaigns()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(camps))
	for i, c := range camps {
		jobs[i] = Job{
			ID:   i,
			Test: c.Test.Name,
			Plan: PlanRef{Name: c.Plan.Name, Spec: c.Plan.Plan.String()},
			Seed: c.Seed,
		}
	}
	return jobs, nil
}

// campaigns materializes the spec's sweep config and its campaigns in
// canonical job order — what the queue schedules and workers execute.
func (s *Spec) campaigns() (litmus.SoakConfig, []litmus.Campaign, error) {
	cfg, err := s.SoakConfig()
	if err != nil {
		return cfg, nil, err
	}
	camps, err := litmus.Campaigns(cfg)
	return cfg, camps, err
}

// RowSuffix renders the configuration-and-code fingerprint appended to
// every row checkpoint key — everything that shapes a row's bytes
// (protocols, MCMs, iteration count, code version) and nothing that
// cannot (worker counts, timeouts, observability). It must stay
// byte-compatible with the c3soak resume path: the coordinator journal
// and the single-process checkpoint ledger are the same file format,
// interchangeably resumable.
func RowSuffix(locals [2]string, global string, mcms [2]cpu.MCM, iters int) string {
	v := obs.Version()
	dirty := ""
	if v.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("locals=%s,%s global=%s mcms=%s,%s iters=%d %s/%s%s",
		locals[0], locals[1], global, mcms[0], mcms[1],
		iters, v.Go, v.Revision, dirty)
}

// Suffix is the spec's own row-key fingerprint, computed with the
// running binary's version. A worker whose Suffix differs from the
// coordinator's is running different code (or a different toolchain)
// and its results must not merge.
func (s *Spec) Suffix() (string, error) {
	mcms, err := s.parseMCMs()
	if err != nil {
		return "", err
	}
	return RowSuffix(s.Locals, s.Global, mcms, s.Iters), nil
}

// RowKey is the content-addressed identity of one shard's result under
// suffix: the (spec, seed, code-version) cache key shared with c3soak's
// ledger checkpoints.
func (j Job) RowKey(suffix string) string { return j.Label() + "|" + suffix }
