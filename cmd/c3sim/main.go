// Command c3sim runs one of the paper's 33 workload kernels on a
// simulated two-cluster heterogeneous CXL system and reports execution
// time and the Fig. 11-style miss breakdown.
//
// Usage:
//
//	c3sim -w histogram
//	c3sim -w barnes -global hmesi -cores 4
//	c3sim -w vips -local1 moesi -mcm0 tso
//	c3sim -w histogram -trace /tmp/t.json     # Perfetto/Chrome trace
//	c3sim -w histogram -metrics json          # machine-readable counters
//	c3sim -w histogram -watchdog -1           # hang detection, default age
//	c3sim -w histogram,barnes,vips -j 4       # several kernels in parallel
//	c3sim -w all                              # the full kernel set
//	c3sim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"c3"
	"c3/internal/litmus"
	"c3/internal/parallel"
	"c3/internal/sim"
	"c3/internal/system"
	"c3/internal/trace"
	"c3/internal/workload"
)

func main() {
	w := flag.String("w", "", "workload name, comma-separated list, or \"all\" (see -list)")
	list := flag.Bool("list", false, "list the 33 kernels")
	var machineFlags system.MachineFlags
	machineFlags.Register(flag.CommandLine)
	cores := flag.Int("cores", 4, "cores per cluster")
	scale := flag.Float64("scale", 1.0, "op-budget scale")
	seed := flag.Int64("seed", 1, "random seed")
	hybrid := flag.Bool("hybrid", false, "home private data in cluster-local memory (Sec. IV-D4)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON to this file")
	metrics := flag.String("metrics", "text", "metrics output format: text|json")
	watchdog := flag.Int64("watchdog", 0, "hang watchdog age in ns (0 = off, -1 = default)")
	workers := flag.Int("j", 0, "worker goroutines in multi-workload mode (0 = GOMAXPROCS)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	faultSpec := flag.String("faults", "", "fault plan: preset name (light|noisy|stall|blackout|crash|crash-rejoin|crash-noisy) or drop=..,dup=.. spec")
	crash := flag.String("crash", "", "host crash: host@tick or host@tick:rejoin (';'-separated, layered over -faults)")
	flag.Parse()

	if *list {
		for _, n := range c3.Workloads() {
			fmt.Println(n)
		}
		return
	}
	if *w == "" {
		fmt.Fprintln(os.Stderr, "c3sim: -w required (see -list)")
		os.Exit(2)
	}

	// Reject configuration typos before spending a run on them.
	machine, err := machineFlags.Machine()
	failUsage(err)
	if *metrics != "text" && *metrics != "json" {
		fmt.Fprintf(os.Stderr, "c3sim: -metrics %q (want text|json)\n", *metrics)
		os.Exit(2)
	}
	plan, err := litmus.ResolveFaults(*faultSpec, *crash)
	failUsage(err)

	names := strings.Split(*w, ",")
	if *w == "all" {
		names = c3.Workloads()
	}
	if len(names) > 1 {
		// Multi-workload mode: fan the kernels across the pool. Tracing,
		// hang watchdogs and JSON metrics are single-run diagnostics —
		// their outputs would interleave — so reject the combination.
		if *traceOut != "" || *watchdog != 0 || *metrics == "json" {
			fmt.Fprintln(os.Stderr, "c3sim: -trace, -watchdog and -metrics json need a single workload")
			os.Exit(2)
		}
		specs := make([]workload.Spec, len(names))
		for i, n := range names {
			spec, ok := workload.ByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "c3sim: unknown workload %q\n", n)
				os.Exit(1)
			}
			failUsage(workload.CheckFaults(spec, plan))
			specs[i] = spec
		}
		_, err := parallel.MapOrdered(context.Background(), *workers, len(specs),
			func(i int) (stats, error) {
				run, err := workload.Run(workload.RunConfig{
					Spec:            specs[i],
					Global:          machine.Global,
					Locals:          machine.Locals,
					MCMs:            machine.MCMs,
					CoresPerCluster: *cores,
					OpsScale:        *scale,
					Seed:            *seed,
					Hybrid:          *hybrid,
					Faults:          plan,
				})
				if err != nil {
					return stats{}, fmt.Errorf("%s: %w", specs[i].Name, err)
				}
				return stats{time: uint64(run.Time), ops: run.Miss.Ops, mpki: run.Miss.MPKI()}, nil
			},
			func(i int, s stats) {
				fmt.Printf("%-16s %12d cycles  %10d ops  MPKI %5.1f\n",
					names[i], s.time, s.ops, s.mpki)
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3sim:", err)
			os.Exit(1)
		}
		return
	}

	spec, ok := workload.ByName(*w)
	if !ok {
		fmt.Fprintf(os.Stderr, "c3sim: unknown workload %q\n", *w)
		os.Exit(1)
	}
	failUsage(workload.CheckFaults(spec, plan))

	cfg := workload.RunConfig{
		Spec:            spec,
		Global:          machine.Global,
		Locals:          machine.Locals,
		MCMs:            machine.MCMs,
		CoresPerCluster: *cores,
		OpsScale:        *scale,
		Seed:            *seed,
		Hybrid:          *hybrid,
		MissHist:        trace.NewLatencyHist(nil),
		Faults:          plan,
	}

	var chrome *trace.ChromeSink
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3sim:", err)
			os.Exit(1)
		}
		chrome = trace.NewChrome(traceFile)
	}
	if chrome != nil || *watchdog != 0 {
		tr := trace.New()
		if chrome != nil {
			chrome.Namer = tr.Label
			tr.AddSink(chrome)
		}
		cfg.Tracer = tr
		switch {
		case *watchdog < 0:
			cfg.WatchdogAge = trace.DefaultHangAge
		case *watchdog > 0:
			cfg.WatchdogAge = sim.NS(uint64(*watchdog))
		}
	}

	run, sys, err := workload.RunOn(cfg)
	if chrome != nil {
		// Flush the trace even on a watchdog abort: the trace of a hung
		// run is exactly what you want to open in Perfetto.
		if cerr := chrome.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "c3sim: trace:", cerr)
		}
		if cerr := traceFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "c3sim: trace:", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3sim:", err)
		os.Exit(1)
	}

	reg := sys.Metrics()
	reg.Counter("run.time_cycles", func() uint64 { return uint64(run.Time) })
	reg.Counter("run.ops", func() uint64 { return run.Miss.Ops })
	reg.Gauge("run.mpki", run.Miss.MPKI)
	reg.Histogram("miss_latency", cfg.MissHist)

	if *metrics == "json" {
		if err := reg.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "c3sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload  %s\nconfig    %s\ntime      %d cycles (%.2f us at 2 GHz)\n",
		run.Name, run.Config, run.Time, float64(run.Time)/2000.0)
	fmt.Printf("ops       %d (MPKI %.1f)\n", run.Miss.Ops, run.Miss.MPKI())
	fmt.Printf("\nmiss cycles by latency band and op type:\n%s", run.Miss.Render())
	if plan != nil {
		if lines := sys.PoisonedLines(); len(lines) > 0 {
			fmt.Printf("\nWARNING: %d line(s) completed poisoned under fault injection\n", len(lines))
		}
		if down := sys.CrashedClusters(); len(down) > 0 {
			fmt.Printf("\nWARNING: cluster(s) %v crashed and did not rejoin\n", down)
		}
	}
	fmt.Println("\nmetrics:")
	reg.RenderText(os.Stdout)
}

// failUsage exits 2 for configuration errors, before any run; exit 1
// stays for run failures.
func failUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3sim:", err)
		os.Exit(2)
	}
}

// stats is the compact per-run summary printed in multi-workload mode.
type stats struct {
	time uint64
	ops  uint64
	mpki float64
}
