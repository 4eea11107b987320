// Command c3litmus runs litmus-test campaigns on the simulated
// heterogeneous CXL system (Sec. VI-A of the paper).
//
// Usage:
//
//	c3litmus -table -iters 1000            # the full Table IV matrix
//	c3litmus -test MP -iters 5000          # one test
//	c3litmus -test SB -unsynced            # the paper's control runs
//	c3litmus -test IRIW -mcm0 tso -mcm1 arm -local1 moesi
//	c3litmus -test MP -crash 1@2500         # host 1 dies mid-run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"c3"
	"c3/internal/litmus"
	"c3/internal/system"
)

// sortedKeys renders map output deterministically.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	test := flag.String("test", "", "litmus test name (see -list)")
	list := flag.Bool("list", false, "list available tests")
	table := flag.Bool("table", false, "run the full Table IV matrix")
	iters := flag.Int("iters", 1000, "iterations per campaign (paper: 100000)")
	var machineFlags system.MachineFlags
	machineFlags.Register(flag.CommandLine)
	unsynced := flag.Bool("unsynced", false, "strip all synchronization (control run)")
	seed := flag.Int64("seed", 1, "base random seed")
	trace := flag.Bool("trace", false, "print the coherence-message trace of the first iteration")
	traceJSON := flag.String("trace-json", "", "write the first iteration's protocol trace to this file (Chrome/Perfetto JSON)")
	workers := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial; results are identical)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	faults := flag.String("faults", "", "fault plan: preset name (light|noisy|stall|blackout|crash|crash-rejoin|crash-noisy) or drop=..,dup=.. spec")
	crash := flag.String("crash", "", "host crash: host@tick or host@tick:rejoin (';'-separated, layered over -faults)")
	flag.Parse()

	if *list {
		for _, n := range c3.LitmusTests() {
			fmt.Println(n)
		}
		return
	}
	if *table {
		rep, err := c3.TableIVWorkers(*iters, *seed, *workers)
		fail(err)
		fmt.Print(rep.Render())
		if !rep.AllPass() {
			os.Exit(1)
		}
		return
	}
	if *test == "" {
		fmt.Fprintln(os.Stderr, "c3litmus: -test, -table or -list required")
		os.Exit(2)
	}
	if _, ok := litmus.ByName(*test); !ok {
		failUsage(fmt.Errorf("unknown litmus test %q (see -list)", *test))
	}
	machine, err := machineFlags.Machine()
	failUsage(err)
	_, err = litmus.ResolveFaults(*faults, *crash)
	failUsage(err)
	res, err := c3.RunLitmus(*test, c3.LitmusConfig{
		Locals:    machine.Locals,
		Global:    machine.Global,
		MCMs:      machine.MCMs,
		Iters:     *iters,
		Unsynced:  *unsynced,
		Seed:      *seed,
		Trace:     *trace,
		TraceJSON: *traceJSON,
		Workers:   *workers,
		Faults:    *faults,
		Crash:     *crash,
	})
	fail(err)
	fmt.Printf("%s: %d iterations, %d distinct outcomes, %d forbidden\n",
		res.Test, res.Iters, res.Distinct, res.Forbidden)
	if *faults != "" || *crash != "" {
		fmt.Printf("faults: %d poisoned, %d crashed, %d hangs\n", res.Poisoned, res.Crashed, res.Hangs)
		for _, v := range sortedKeys(res.PoisonedVars) {
			fmt.Printf("poisoned var %s: %d iterations\n", v, res.PoisonedVars[v])
		}
	}
	if res.Forbidden > 0 {
		fmt.Printf("example forbidden outcome: %s\n", res.ForbiddenExample)
		if !*unsynced {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3litmus:", err)
		os.Exit(1)
	}
}

// failUsage exits 2 for configuration errors (bad flag values), keeping
// exit 1 for genuine run failures.
func failUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3litmus:", err)
		os.Exit(2)
	}
}
