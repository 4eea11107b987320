package verif

import (
	"errors"
	"strings"
	"testing"

	"c3/internal/litmus"
	"c3/internal/mem"
	"c3/internal/msg"
)

// setRootMutate installs the test seam that perturbs every freshly
// built model, and removes it when the test ends. Tests using it must
// not run in parallel.
func setRootMutate(t *testing.T, fn func(*Model)) {
	t.Helper()
	if testRootMutate != nil {
		t.Fatal("testRootMutate already set")
	}
	testRootMutate = fn
	t.Cleanup(func() { testRootMutate = nil })
}

func asCex(t *testing.T, err error) *Counterexample {
	t.Helper()
	var cex *Counterexample
	if !errors.As(err, &cex) {
		t.Fatalf("error is not a *Counterexample: %v", err)
	}
	return cex
}

// TestForbiddenWitnessReplays: checking the forbidden predicate on
// unsynced MP must fail with a minimized witness that Replay re-executes
// to the identical forbidden outcome — and the witness must be the same
// whether the checker snapshots or replays from the root.
func TestForbiddenWitnessReplays(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncNone)
	_, err := Check(mcfg, CheckerConfig{MaxStates: 150_000, CheckForbidden: true})
	if err == nil {
		t.Fatal("expected a forbidden-outcome violation")
	}
	cex := asCex(t, err)
	if cex.Kind != VForbidden {
		t.Fatalf("kind = %v, want forbidden", cex.Kind)
	}
	if cex.Msg != "1:r0=1 1:r1=0 x=1 y=1" {
		t.Fatalf("forbidden outcome = %q", cex.Msg)
	}
	if !strings.Contains(err.Error(), "verif: forbidden outcome reachable:") {
		t.Fatalf("error string changed: %q", err.Error())
	}
	if len(cex.Path) == 0 || len(cex.Path) > cex.OriginalLen {
		t.Fatalf("witness length %d vs original %d", len(cex.Path), cex.OriginalLen)
	}

	res, rerr := Replay(mcfg, cex.Path)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if res.Kind != VForbidden || res.Msg != cex.Msg {
		t.Fatalf("replay reproduced %v %q, want %v %q", res.Kind, res.Msg, cex.Kind, cex.Msg)
	}
	if len(res.Steps) != len(cex.Path) || !res.Terminal {
		t.Fatalf("replay: %d steps, terminal=%v", len(res.Steps), res.Terminal)
	}
	for _, s := range res.Steps {
		if s == "" {
			t.Fatal("undecoded witness step")
		}
	}

	// Same witness from the replay-from-root strategy.
	_, err2 := Check(mcfg, CheckerConfig{MaxStates: 150_000, CheckForbidden: true, ReplayFromRoot: true})
	cex2 := asCex(t, err2)
	if len(cex2.Path) != len(cex.Path) {
		t.Fatalf("strategies found different witnesses: %v vs %v", cex2.Path, cex.Path)
	}
	for i := range cex.Path {
		if cex.Path[i] != cex2.Path[i] {
			t.Fatalf("strategies found different witnesses: %v vs %v", cex2.Path, cex.Path)
		}
	}
}

// TestForbiddenSkippedWhenUnsynced: without CheckForbidden the relaxed
// run must not flag the (architecturally legal) outcome, but the Report
// must record that the predicate went unevaluated. This also pins the
// SyncFull comparison: a SyncFull run of the same shape leaves
// ForbiddenSkipped unset.
func TestForbiddenSkippedWhenUnsynced(t *testing.T) {
	rep, err := Check(mpCXL(t, litmus.SyncNone), CheckerConfig{MaxStates: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ForbiddenSkipped {
		t.Fatal("ForbiddenSkipped not recorded on an unsynced run")
	}
	rep, err = Check(mpCXL(t, litmus.SyncFull), CheckerConfig{MaxStates: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ForbiddenSkipped {
		t.Fatal("ForbiddenSkipped set on a SyncFull run")
	}
}

// TestDeadlockWitness forces the deadlock branch by discarding every
// in-flight message at the root: the cores have issued requests and wait
// on replies that no longer exist.
func TestDeadlockWitness(t *testing.T) {
	setRootMutate(t, func(m *Model) {
		m.Fabric.bag = nil
		m.Fabric.chans = nil
	})
	mcfg := mpCXL(t, litmus.SyncFull)
	_, err := Check(mcfg, CheckerConfig{MaxStates: 1000})
	if err == nil {
		t.Fatal("expected a deadlock")
	}
	cex := asCex(t, err)
	if cex.Kind != VDeadlock {
		t.Fatalf("kind = %v, want deadlock", cex.Kind)
	}
	if !strings.Contains(err.Error(), "verif: deadlock at depth 0: cores stuck with empty fabric") {
		t.Fatalf("error string changed: %q", err.Error())
	}
	res, rerr := Replay(mcfg, cex.Path)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if res.Kind != VDeadlock {
		t.Fatalf("replay reproduced %v, want deadlock", res.Kind)
	}
}

// TestInvariantWitness forces the SWMR branch by installing two modified
// copies of the same line at the root; the checker must fail immediately
// and the witness must replay to the identical invariant error.
func TestInvariantWitness(t *testing.T) {
	line := mem.Addr(0x40000).Line()
	setRootMutate(t, func(m *Model) {
		for i := 0; i < 2; i++ {
			e := m.threads[i].l1.Cache().Probe(line)
			if e == nil {
				e = m.threads[i].l1.Cache().Install(line)
			}
			e.State = 3 // stM
		}
	})
	mcfg := mpCXL(t, litmus.SyncFull)
	_, err := Check(mcfg, CheckerConfig{MaxStates: 1000})
	if err == nil {
		t.Fatal("expected an SWMR violation")
	}
	cex := asCex(t, err)
	if cex.Kind != VInvariant {
		t.Fatalf("kind = %v, want invariant", cex.Kind)
	}
	if !strings.Contains(cex.Msg, "SWMR violated") {
		t.Fatalf("msg = %q", cex.Msg)
	}
	res, rerr := Replay(mcfg, cex.Path)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if res.Kind != VInvariant || res.Msg != cex.Msg {
		t.Fatalf("replay reproduced %v %q, want %v %q", res.Kind, res.Msg, cex.Kind, cex.Msg)
	}
}

// TestLivelockDepthBound: a depth bound below the shortest terminal
// execution must trip the livelock branch with a witness exactly as long
// as the bound, and replaying it must land in a live (non-deadlocked,
// non-terminal) state — distinguishing a bound hit from a dead end.
func TestLivelockDepthBound(t *testing.T) {
	mcfg := mpCXL(t, litmus.SyncFull)
	_, err := Check(mcfg, CheckerConfig{MaxStates: 100_000, MaxDepth: 3})
	if err == nil {
		t.Fatal("expected a depth-bound violation")
	}
	cex := asCex(t, err)
	if cex.Kind != VLivelock {
		t.Fatalf("kind = %v, want livelock", cex.Kind)
	}
	if len(cex.Path) != 3 {
		t.Fatalf("livelock witness has %d steps, want the bound (3)", len(cex.Path))
	}
	if !strings.Contains(err.Error(), "verif: depth bound 3 exceeded (livelock?)") {
		t.Fatalf("error string changed: %q", err.Error())
	}
	res, rerr := Replay(mcfg, cex.Path)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if res.Kind != VNone || res.Terminal || res.EnabledAtEnd == 0 {
		t.Fatalf("livelock witness should end live: kind=%v terminal=%v enabled=%d",
			res.Kind, res.Terminal, res.EnabledAtEnd)
	}
}

// TestTruncatedEarlyReturn: hitting MaxStates is a bounded result, not a
// violation.
func TestTruncatedEarlyReturn(t *testing.T) {
	rep, err := Check(mpCXL(t, litmus.SyncFull), CheckerConfig{MaxStates: 2})
	if err != nil {
		t.Fatalf("truncation must not be an error: %v", err)
	}
	if !rep.Truncated {
		t.Fatal("Truncated not set")
	}
}

// TestActionCountOverflow: the path encoding holds 65536 choices per
// step; a state offering more must be an explicit error, not a silent
// uint16 wrap. The fabricated fabric injects the excess directly into
// the unordered bag.
func TestActionCountOverflow(t *testing.T) {
	setRootMutate(t, func(m *Model) {
		for i := 0; i < 66_000; i++ {
			m.Fabric.bag = append(m.Fabric.bag, &msg.Msg{
				Addr: 0x40000, Src: 4, Dst: 5, VNet: msg.VReq, Val: uint64(i),
			})
		}
	})
	_, err := Check(mpCXL(t, litmus.SyncFull), CheckerConfig{MaxStates: 1000})
	if err == nil {
		t.Fatal("expected an action-count overflow error")
	}
	if errors.As(err, new(*Counterexample)) {
		t.Fatalf("overflow must not masquerade as a violation: %v", err)
	}
	if !strings.Contains(err.Error(), "exceed") || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayDiverged: an index past the enabled-action list is a replay
// error, not a panic.
func TestReplayDiverged(t *testing.T) {
	_, err := Replay(mpCXL(t, litmus.SyncFull), []uint16{9999})
	if err == nil || !strings.Contains(err.Error(), "replay diverged") {
		t.Fatalf("want divergence error, got %v", err)
	}
}
