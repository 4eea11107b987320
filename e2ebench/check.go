package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"c3/internal/cpu"
	"c3/internal/litmus"
	"c3/internal/verif"
)

// checkBench explores the whole litmus corpus on MESI-CXL-MESI, ARM
// cores, with the checker's default reductions and one worker. The
// checker takes no seed; the benchmark seed orders the tests of each
// pass.
type checkBench struct {
	tests []litmus.Test
	rng   *rand.Rand
	first map[string]checkOut
}

// checkOut is the part of a report every pass must reproduce.
type checkOut struct {
	states, terminals uint64
	outcomes          int
}

// checkWarmup is the untimed exploration set-up ends with.
const checkWarmup = "WRC"

func newCheck(seed int64) bench {
	return &checkBench{
		tests: litmus.Tests(),
		rng:   rand.New(rand.NewPCG(uint64(seed), 0xc4ec)),
		first: map[string]checkOut{},
	}
}

func modelConfig(t litmus.Test) verif.ModelConfig {
	return verif.ModelConfig{
		Test:   t,
		Locals: [2]string{"mesi", "mesi"},
		Global: "cxl",
		MCMs:   [2]cpu.MCM{cpu.WMO, cpu.WMO},
		Sync:   litmus.SyncFull,
	}
}

func (b *checkBench) setup() error {
	t, ok := litmus.ByName(checkWarmup)
	if !ok {
		return fmt.Errorf("no litmus test %s", checkWarmup)
	}
	_, err := verif.Check(modelConfig(t), verif.CheckerConfig{Workers: 1})
	return err
}

// explore runs one exhaustive exploration and checks its report: no
// counterexample, no truncation, and the same counts as the test's
// first exploration in this process.
func (b *checkBench) explore(t litmus.Test) (*verif.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := verif.Check(modelConfig(t), verif.CheckerConfig{Workers: 1})
	d := time.Since(t0)
	switch {
	case err != nil:
		return rep, d, fmt.Errorf("%s: %v", t.Name, err)
	case rep.Truncated:
		return rep, d, fmt.Errorf("%s: truncated at %d states", t.Name, rep.States)
	}
	out := checkOut{rep.States, rep.Terminals, len(rep.Outcomes)}
	if prev, seen := b.first[t.Name]; !seen {
		b.first[t.Name] = out
	} else if out != prev {
		return rep, d, fmt.Errorf("%s: report %+v differs from the first exploration %+v", t.Name, out, prev)
	}
	return rep, d, nil
}

// opsOf counts a test's operations: the memory ops one complete
// execution retires.
func opsOf(t litmus.Test) int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// measure times corpus passes until the deadline. A unit's time is its
// test's median over the passes, so run_ms_p50/p90 are percentiles over
// the corpus's tests: the median exploration is the same test in every
// run, and does not flip between two tests of different size.
func (b *checkBench) measure(deadline time.Time, t *tally) {
	perTest := make([][]float64, len(b.tests))
	defer func() {
		for _, ms := range perTest {
			t.unitMS = append(t.unitMS, quantile(ms, 0.5))
		}
	}()
	for {
		var p pass
		t0 := time.Now()
		for _, i := range b.rng.Perm(len(b.tests)) {
			test := b.tests[i]
			t.attempted++
			rep, d, err := b.explore(test)
			perTest[i] = append(perTest[i], float64(d)/1e6)
			if err != nil {
				t.fail("check %v", err)
				continue
			}
			p.execs += float64(rep.Terminals)
			p.ops += float64(rep.Terminals) * float64(opsOf(test))
		}
		p.secs = time.Since(t0).Seconds()
		t.passes = append(t.passes, p)
		if time.Now().After(deadline) {
			return
		}
	}
}

// Walk span kinds: the checker's public per-state operations.
const (
	wBuild = iota // verif.Build + Start
	wEnabled
	wClone
	wStep
	wRelease
	numWalkKinds
)

// walk prices the checker's public operations on one test along
// deterministic paths from the root: at every state it times
// Fabric.Enabled, then Clone + Step of up to walkFan successors the way
// the checker expands them, continues with one and Releases the rest.
func walk(test litmus.Test, sp *spans) error {
	const walks, walkFan, maxDepth = 6, 4, 400
	for w := 0; w < walks; w++ {
		t0 := sp.begin()
		m, err := verif.Build(modelConfig(test))
		if err != nil {
			sp.end(wBuild, t0)
			return err
		}
		m.Start()
		sp.end(wBuild, t0)
		for depth := 0; depth < maxDepth; depth++ {
			t0 = sp.begin()
			acts := m.Fabric.Enabled()
			sp.end(wEnabled, t0)
			if len(acts) == 0 {
				break
			}
			pick := (w*31 + depth*7) % len(acts)
			var next *verif.Model
			for j := 0; j < len(acts) && j < walkFan; j++ {
				t0 = sp.begin()
				c := m.Clone()
				sp.end(wClone, t0)
				t0 = sp.begin()
				c.Step(acts[(pick+j)%len(acts)])
				sp.end(wStep, t0)
				if j == 0 {
					next = c
					continue
				}
				t0 = sp.begin()
				c.Release()
				sp.end(wRelease, t0)
			}
			t0 = sp.begin()
			m.Release()
			sp.end(wRelease, t0)
			m = next
		}
		m.Release()
	}
	return nil
}

// trace alternates an untraced corpus pass and a walk per test until the
// deadline. Σ(count × unit cost) prices each test's report counts with
// its walk's unit costs. What the public operations do not explain — the
// canonical fingerprint, the visited set and the invariant checks — is
// the residual, so priced + residual is the untraced wall by
// construction. The walks trace no part of the pass itself, so the
// check workload reports no trace overhead.
func (b *checkBench) trace(deadline time.Time, t *tally, rows map[string]float64) {
	var untraced, priced time.Duration
	var states, clones, merges, skips float64
	var cloneNS, stepNS, enabledNS float64 // Σ count × unit cost
	a := readAllocs()
	rounds := 0
	for rounds == 0 || time.Now().Before(deadline) {
		rounds++
		reps := make([]*verif.Report, len(b.tests))
		for i, test := range b.tests {
			t.attempted++
			rep, d, err := b.explore(test)
			untraced += d
			if err != nil {
				t.fail("check %v", err)
				continue
			}
			reps[i] = rep
		}
		if rounds == 1 {
			allocRows(rows, a, len(b.tests))
		}
		for i, test := range b.tests {
			rep := reps[i]
			if rep == nil {
				continue
			}
			t.attempted++
			sp := newSpans(numWalkKinds)
			if err := walk(test, sp); err != nil {
				t.fail("check walk %s: %v", test.Name, err)
				continue
			}
			c, s := float64(rep.Clones), float64(rep.States)
			states += s
			clones += c
			merges += float64(rep.SymmetryMerges)
			skips += float64(rep.PORSkips)
			cloneNS += c * sp.perCall(wClone)
			stepNS += c * sp.perCall(wStep)
			enabledNS += s * sp.perCall(wEnabled)
			// Every model built or cloned is released once.
			sum := c*(sp.perCall(wClone)+sp.perCall(wStep)+sp.perCall(wRelease)) +
				s*sp.perCall(wEnabled) +
				float64(rep.Builds)*(sp.perCall(wBuild)+sp.perCall(wRelease))
			priced += time.Duration(sum)
		}
	}
	r := float64(rounds)
	rows["verif.states"] = states / r
	rows["verif.clones"] = clones / r
	rows["verif.symmetry_merges"] = merges / r
	rows["verif.por_skips"] = skips / r
	rows["verif.clone_ns"] = cloneNS / clones
	rows["verif.step_ns"] = stepNS / clones
	rows["verif.enabled_ns"] = enabledNS / states
	rows["verif.residual_ns_per_state"] = float64(untraced-priced) / states
	rows["attrib.coverage"] = float64(priced) / float64(untraced)
	microRows(rows, false)
	fmt.Fprintf(os.Stderr, "e2ebench: traced %d corpus rounds; public operations explain %.3f of the untraced pass (tolerance at most %.2f), residual %.0f ns/state\n",
		rounds, rows["attrib.coverage"], checkCoverageHi, rows["verif.residual_ns_per_state"])
	if rows["attrib.coverage"] > checkCoverageHi {
		fmt.Fprintln(os.Stderr, "e2ebench: WARNING: priced operations exceed the untraced wall; the residual is negative")
	}
}

// checkCoverageHi bounds the check closure. The residual absorbs what the
// public operations leave unexplained, so the priced share may take any
// value up to the whole wall, plus this much timing noise.
const checkCoverageHi = 1.05
