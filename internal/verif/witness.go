package verif

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"c3/internal/litmus"
)

// ViolationKind classifies what a counterexample demonstrates.
type ViolationKind uint8

const (
	VNone      ViolationKind = iota
	VInvariant               // SWMR / Rule-I compound-state violation
	VDeadlock                // cores stuck with an empty fabric
	VLivelock                // depth bound exceeded with actions enabled
	VForbidden               // litmus-forbidden terminal outcome
)

func (k ViolationKind) String() string {
	switch k {
	case VNone:
		return "none"
	case VInvariant:
		return "invariant"
	case VDeadlock:
		return "deadlock"
	case VLivelock:
		return "livelock"
	case VForbidden:
		return "forbidden-outcome"
	}
	return fmt.Sprintf("ViolationKind(%d)", uint8(k))
}

// Counterexample is a reproducible violation witness: the sequence of
// delivery choices (indices into Enabled(), in order) that drives a
// fresh model from the initial state to the failure. Check returns one
// as its error on every violation path; extract it with errors.As and
// re-execute it with Replay. Except for livelock witnesses — where the
// path's length IS the failure — the path has been shrunk by
// delta-debugging and is never longer than the original.
type Counterexample struct {
	Kind ViolationKind
	// Msg is the underlying failure: the invariant error text, the
	// forbidden outcome rendering, or the deadlock description.
	Msg string
	// Path replays the violation: at each step deliver Enabled()[i].
	Path []uint16
	// OriginalLen is the path length before minimization.
	OriginalLen int
	// Minimized reports that delta-debugging ran (and reproduced the
	// violation at least once).
	Minimized bool
}

func (c *Counterexample) Error() string {
	d := len(c.Path)
	switch c.Kind {
	case VInvariant:
		return fmt.Sprintf("%s (depth %d)", c.Msg, d)
	case VDeadlock:
		return fmt.Sprintf("verif: deadlock at depth %d: %s", d, c.Msg)
	case VLivelock:
		return fmt.Sprintf("verif: depth bound %d exceeded (livelock?)", d)
	case VForbidden:
		return fmt.Sprintf("verif: forbidden outcome reachable: %s", c.Msg)
	}
	return c.Msg
}

// replay builds and starts a fresh model under the transition memo mo
// (nil for none), applies testRootMutate (which writes the model outside
// Step, so its hashes are dropped after), and delivers path, calling
// each (when non-nil) with every action just before its delivery.
// Exploration, minimization and witness replay all build their roots
// here.
func replay(mcfg ModelConfig, path []uint16, mo *memo, each func(m *Model, a Action)) (*Model, error) {
	m, err := Build(mcfg)
	if err != nil {
		return nil, err
	}
	m.b.memo = mo
	m.Start()
	if testRootMutate != nil {
		testRootMutate(m)
		m.dropHashes()
	}
	for i, ai := range path {
		acts := m.Fabric.Enabled()
		if int(ai) >= len(acts) {
			m.Release()
			return nil, diverged(ai, len(acts), i)
		}
		if each != nil {
			each(m, acts[ai])
		}
		m.Step(acts[ai])
	}
	return m, nil
}

// testRootMutate, when non-nil, perturbs every model replay builds,
// after Start: a test seam for forcing failure branches (deadlock,
// action-count overflow) that well-formed configurations cannot reach.
// It must be deterministic, so that every root is the same.
var testRootMutate func(*Model)

// diverged reports a path index past the enabled-action list.
func diverged(ai uint16, enabled, step int) error {
	return fmt.Errorf("verif: replay diverged: action %d of %d enabled after step %d", ai, enabled, step)
}

// minimizeBudget caps model re-executions per minimization, keeping the
// delta-debugging cost bounded on deep witnesses.
const minimizeBudget = 600

// minimizeWitness shrinks cex.Path by delta debugging: greedily drop
// chunks of delivery steps while the same violation still reproduces.
// Because dropping a step renumbers every later Enabled() index, steps
// are matched by message identity (msgHash) rather than by index, and
// the surviving subsequence is converted back to an index path at the
// end. Guarantees: the result reproduces the identical failure (same
// Kind and Msg — for invariants it may fire at a shallower depth along
// the way, which truncates the tail for free), and is never longer than
// the original. On any budget exhaustion or non-reproduction the
// original path is kept.
func minimizeWitness(mcfg ModelConfig, sym *symmetry, cex *Counterexample, rep *Report) {
	if len(cex.Path) == 0 {
		return
	}
	budget := minimizeBudget
	keys, err := pathKeys(mcfg, sym, cex.Path, rep)
	if err != nil {
		return
	}
	// Sanity: replaying the full key sequence must reproduce the failure
	// (it re-executes the original path by identity).
	best, ok := reproduces(mcfg, sym, keys, cex, rep, &budget)
	if !ok {
		return
	}
	cex.Minimized = true
	sz := len(keys) / 2
	if sz < 1 {
		sz = 1
	}
	for budget > 0 {
		removed := false
		for start := 0; start+sz <= len(keys) && budget > 0; {
			cand := make([]uint64, 0, len(keys)-sz)
			cand = append(cand, keys[:start]...)
			cand = append(cand, keys[start+sz:]...)
			if p, ok := reproduces(mcfg, sym, cand, cex, rep, &budget); ok {
				keys, best, removed = cand, p, true
			} else {
				start += sz
			}
		}
		if !removed {
			if sz == 1 {
				break
			}
			sz /= 2
		}
	}
	if len(best) <= len(cex.Path) {
		cex.Path = best
	}
}

// pathKeys hashes the message of each step of path under the identity
// renaming.
func pathKeys(mcfg ModelConfig, sym *symmetry, path []uint16, rep *Report) ([]uint64, error) {
	keys := make([]uint64, 0, len(path))
	m, err := replay(mcfg, path, nil, func(m *Model, a Action) {
		keys = append(keys, msgHash(m.Fabric.Peek(a), &sym.perms[0]))
	})
	if err != nil {
		return nil, err
	}
	m.Release()
	rep.Builds++
	return keys, nil
}

// reproduces replays the delivery steps identified by keys (matched by
// message identity, first match in canonical order) and reports whether
// the same violation fires, returning the corresponding index path.
// Invariant violations may fire before all keys are consumed; the
// shorter prefix is returned.
func reproduces(mcfg ModelConfig, sym *symmetry, keys []uint64, cex *Counterexample, rep *Report, budget *int) ([]uint16, bool) {
	if *budget <= 0 {
		return nil, false
	}
	*budget--
	m, err := replay(mcfg, nil, nil, nil)
	if err != nil {
		return nil, false
	}
	defer m.Release()
	rep.Builds++
	path := make([]uint16, 0, len(keys))
	for _, key := range keys {
		acts := m.Fabric.Enabled()
		ai := -1
		for i, a := range acts {
			if msgHash(m.Fabric.Peek(a), &sym.perms[0]) == key {
				ai = i
				break
			}
		}
		if ai < 0 || ai > math.MaxUint16 {
			return nil, false
		}
		m.Step(acts[ai])
		path = append(path, uint16(ai))
		if cex.Kind == VInvariant {
			if err := m.checkInvariants(); err != nil && err.Error() == cex.Msg {
				return path, true
			}
		}
	}
	if len(m.Fabric.Enabled()) != 0 {
		return nil, false
	}
	o, kind, msg := m.settle()
	switch {
	case kind != VNone:
		return path, kind == cex.Kind && msg == cex.Msg
	case cex.Kind == VForbidden:
		// The recorded outcome may be an orbit image of the one this
		// path concretely produces (the checker records all images of a
		// merged terminal), so match up to the symmetry group.
		for _, oo := range sym.outcomeOrbit(o) {
			if oo.String() == cex.Msg {
				return path, true
			}
		}
	}
	return nil, false
}

// ReplayResult reports what replaying a delivery path does to a fresh
// model.
type ReplayResult struct {
	// Steps decodes each delivered message in order.
	Steps []string
	// Kind/Msg describe the violation the path reproduces; VNone if the
	// replay completes without one.
	Kind ViolationKind
	Msg  string
	// FailedAt is the number of steps delivered when the violation fired
	// (== len(Steps) unless an invariant tripped mid-path).
	FailedAt int
	// Terminal reports an all-retired, fabric-empty final state; Outcome
	// is then valid.
	Terminal bool
	Outcome  litmus.Outcome
	// EnabledAtEnd counts deliverable actions at the final state (>0 with
	// !Terminal on a livelock witness: the bound was hit, not a dead end).
	EnabledAtEnd int
}

// Replay deterministically re-executes a counterexample path against a
// fresh model, checking invariants after every delivery. It is the
// c3check -replay backend and the reproduction guarantee behind every
// witness Check returns.
func Replay(mcfg ModelConfig, path []uint16) (*ReplayResult, error) {
	m, err := replay(mcfg, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	res := &ReplayResult{}
	if err := m.checkInvariants(); err != nil {
		res.Kind, res.Msg = VInvariant, err.Error()
		return res, nil
	}
	for _, ai := range path {
		acts := m.Fabric.Enabled()
		if int(ai) >= len(acts) {
			return nil, diverged(ai, len(acts), len(res.Steps))
		}
		res.Steps = append(res.Steps, m.Fabric.Peek(acts[ai]).String())
		m.Step(acts[ai])
		if err := m.checkInvariants(); err != nil {
			res.Kind, res.Msg, res.FailedAt = VInvariant, err.Error(), len(res.Steps)
			return res, nil
		}
	}
	res.FailedAt = len(res.Steps)
	res.EnabledAtEnd = len(m.Fabric.Enabled())
	if res.EnabledAtEnd == 0 {
		var o litmus.Outcome
		o, res.Kind, res.Msg = m.settle()
		if res.Kind == VNone {
			res.Terminal, res.Outcome = true, o
			if mcfg.Test.Forbidden != nil && mcfg.Test.Forbidden(o) {
				res.Kind, res.Msg = VForbidden, o.String()
			}
		}
	}
	return res, nil
}

// FormatWitness renders a delivery path as c3check prints it: the
// action indices, comma-separated.
func FormatWitness(path []uint16) string {
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = strconv.Itoa(int(p))
	}
	return strings.Join(parts, ",")
}

// ParseWitness decodes a comma-separated delivery path (c3check
// -replay). Spaces around an index and empty fields are ignored.
func ParseWitness(s string) ([]uint16, error) {
	var path []uint16
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 16)
		if err != nil {
			return nil, err
		}
		path = append(path, uint16(v))
	}
	return path, nil
}
