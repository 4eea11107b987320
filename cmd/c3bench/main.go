// Command c3bench regenerates the paper's evaluation artifacts:
//
//	c3bench -exp fig9    # MCM-mix comparison (Sec. VI-B)
//	c3bench -exp fig10   # protocol-mix comparison (Sec. VI-C)
//	c3bench -exp fig11   # miss-latency breakdowns (Sec. VI-C1)
//	c3bench -exp tab4    # the litmus matrix (Sec. VI-A)
//	c3bench -exp micro   # the perf-trajectory micro suite
//	c3bench -exp all
//
// Scale knobs: -scale multiplies kernel op budgets, -cores sets cores
// per cluster, -iters sets litmus iterations per cell, -j bounds the
// worker pool (results are identical for every worker count). The
// defaults complete in minutes; the paper-scale equivalents are
// documented in EXPERIMENTS.md.
//
// Perf trajectory: -exp micro runs the fixed-op micro benchmarks
// (kernel, network-send, checker-expand, soak-inner-loop) -runs times
// and aggregates (median wall, min allocs). -write-baseline commits the
// result as BENCH_c3.json; -baseline compares against a committed file
// and exits 1 on a >-tolerance wall regression or any alloc-count
// increase.
//
// Observability: -statusz serves a live run snapshot (JSON + pprof +
// expvar), -heartbeat prints progress to stderr, and every invocation
// appends a record to the run ledger (-ledger, default $C3_LEDGER or
// c3runs.jsonl; empty disables). None of these affect results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"c3"
	"c3/internal/obs"
	"c3/internal/perf"
	"c3/internal/trace"
)

// benchStat is one entry of the -bench-json report: wall time and
// allocation cost per experiment, in `go test -bench` units.
type benchStat struct {
	NsOp     int64  `json:"ns_per_op"`
	AllocsOp uint64 `json:"allocs_per_op"`
	BytesOp  uint64 `json:"bytes_per_op"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig9|fig10|fig11|tab4|hybrid|micro|all")
	scale := flag.Float64("scale", 1.0, "workload op-budget scale")
	cores := flag.Int("cores", 4, "cores per cluster")
	iters := flag.Int("iters", 400, "litmus iterations per Table IV cell")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("j", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(workers, "workers", 0, "alias for -j")
	verbose := flag.Bool("v", false, "per-run progress")
	out := flag.String("out", "", "also write each experiment's table to <out>/<exp>.txt")
	benchJSON := flag.String("bench-json", "", "write per-experiment timing/alloc stats (JSON) to this file")
	runs := flag.Int("runs", 1, "micro-suite repetitions to aggregate (CI uses 3: median wall, min allocs)")
	baseline := flag.String("baseline", "", "compare the micro suite against this committed baseline; exit 1 on regression")
	writeBaseline := flag.String("write-baseline", "", "write the micro suite's aggregate as a new baseline file")
	tolerance := flag.Float64("tolerance", perf.DefaultWallTolerance, "wall-time regression budget for -baseline (fraction)")
	statusz := flag.String("statusz", "", "serve live introspection (/statusz JSON, /metricsz, pprof, expvar) on this address, e.g. :8080 or 127.0.0.1:0")
	heartbeat := flag.Duration("heartbeat", 0, "print a progress line to stderr at this interval (0 = off)")
	ledger := flag.String("ledger", obs.DefaultLedgerPath(), "append a JSONL run record to this file (empty = off)")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "c3bench:", err)
			os.Exit(1)
		}
	}

	opts := c3.ExpOptions{CoresPerCluster: *cores, OpsScale: *scale, Seed: *seed, Workers: *workers}
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	want := func(n string) bool { return *exp == "all" || *exp == n }
	// -baseline / -write-baseline imply the micro suite even under a
	// figure-only -exp, so the CI compare step composes with any run.
	wantMicro := want("micro") || *baseline != "" || *writeBaseline != ""

	type job struct {
		name string
		f    func() (interface{ Render() string }, error)
	}
	var jobs []job
	if want("tab4") {
		jobs = append(jobs, job{"Table IV", func() (interface{ Render() string }, error) {
			return c3.TableIVWorkers(*iters, *seed, *workers)
		}})
	}
	if want("fig9") {
		jobs = append(jobs, job{"Fig. 9", func() (interface{ Render() string }, error) { return c3.Fig9(opts) }})
	}
	if want("fig10") {
		jobs = append(jobs, job{"Fig. 10", func() (interface{ Render() string }, error) { return c3.Fig10(opts) }})
	}
	if want("fig11") {
		jobs = append(jobs, job{"Fig. 11", func() (interface{ Render() string }, error) { return c3.Fig11(opts) }})
	}
	if want("hybrid") {
		jobs = append(jobs, job{"Hybrid (extension)", func() (interface{ Render() string }, error) {
			return c3.Hybrid(opts)
		}})
	}

	labels := make([]string, 0, len(jobs)+1)
	for _, j := range jobs {
		labels = append(labels, j.name)
	}
	if wantMicro {
		labels = append(labels, "micro suite")
	}

	tracker := obs.NewTracker()
	tracker.Plan(labels)
	var done atomic.Uint64
	registry := trace.NewRegistry()
	registry.Counter("bench.experiments_done", done.Load)

	stopWatch, err := obs.Watch("c3bench", *statusz, *heartbeat, tracker, registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3bench:", err)
		os.Exit(2)
	}

	start := time.Now()
	extra := map[string]any{}
	// finish is the single exit path once observers are armed: it stops
	// them, appends the ledger record, and exits.
	finish := func(verdict string, exit int) {
		stopWatch()
		obs.AppendRun(*ledger, start, registry, obs.Record{
			Tool:    "c3bench",
			Spec:    obs.SpecFromFlags("statusz", "heartbeat", "ledger"),
			Seeds:   []int64{*seed},
			Workers: *workers,
			Verdict: verdict,
			Exit:    exit,
			Extra:   extra,
		})
		os.Exit(exit)
	}

	stats := map[string]benchStat{}
	run := func(i int, name string, f func() (interface{ Render() string }, error)) {
		tracker.TaskStarted(i)
		var before, after runtime.MemStats
		if *benchJSON != "" {
			runtime.ReadMemStats(&before)
		}
		jobStart := time.Now()
		r, err := f()
		elapsed := time.Since(jobStart)
		tracker.TaskDone(i, err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c3bench %s: %v\n", name, err)
			extra["error"] = err.Error()
			finish(obs.VerdictError, 1)
		}
		done.Add(1)
		if *benchJSON != "" {
			runtime.ReadMemStats(&after)
			stats[name] = benchStat{
				NsOp:     elapsed.Nanoseconds(),
				AllocsOp: after.Mallocs - before.Mallocs,
				BytesOp:  after.TotalAlloc - before.TotalAlloc,
			}
		}
		body := r.Render()
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, elapsed.Seconds(), body)
		if *out != "" {
			file := filepath.Join(*out, strings.ToLower(strings.ReplaceAll(
				strings.Fields(name)[0], ".", ""))+".txt")
			if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "c3bench:", err)
				finish(obs.VerdictError, 1)
			}
		}
	}

	for i, j := range jobs {
		run(i, j.name, j.f)
	}

	verdict := obs.VerdictPass
	exit := 0
	if wantMicro {
		i := len(jobs)
		tracker.TaskStarted(i)
		microStart := time.Now()
		micro := perf.MeasureAll(*runs)
		tracker.TaskDone(i, nil)
		done.Add(1)
		extra["micro"] = micro

		fmt.Printf("==== micro suite (%.1fs, %d run(s)) ====\n", time.Since(microStart).Seconds(), *runs)
		for _, name := range sortedStatNames(micro) {
			s := micro[name]
			fmt.Printf("%-18s %12d ns/op %8d allocs/op %10d B/op (x%d ops)\n",
				name, s.NsOp, s.AllocsOp, s.BytesOp, s.Ops)
			// Micro entries join the -bench-json report under micro/ names
			// so one file carries the whole invocation's perf data.
			stats["micro/"+name] = benchStat{NsOp: s.NsOp, AllocsOp: s.AllocsOp, BytesOp: s.BytesOp}
		}
		fmt.Println()

		if *writeBaseline != "" {
			if err := perf.SaveBaseline(*writeBaseline, perf.NewBaseline(micro)); err != nil {
				fmt.Fprintln(os.Stderr, "c3bench:", err)
				extra["error"] = err.Error()
				finish(obs.VerdictError, 1)
			}
			fmt.Fprintf(os.Stderr, "c3bench: wrote baseline %s\n", *writeBaseline)
		}
		if *baseline != "" {
			base, err := perf.LoadBaseline(*baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, "c3bench:", err)
				extra["error"] = err.Error()
				finish(obs.VerdictError, 1)
			}
			fmt.Print(perf.Summary(base, micro))
			if bad := perf.Compare(base, micro, *tolerance); len(bad) > 0 {
				for _, line := range bad {
					fmt.Fprintln(os.Stderr, "c3bench: REGRESSION:", line)
				}
				extra["regressions"] = bad
				verdict, exit = obs.VerdictFail, 1
			} else {
				fmt.Printf("perf trajectory OK: within +%.0f%% wall, no alloc growth (baseline %s)\n",
					100**tolerance, *baseline)
			}
		}
	}

	if *benchJSON != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3bench:", err)
			extra["error"] = err.Error()
			finish(obs.VerdictError, 1)
		}
	}
	finish(verdict, exit)
}

func sortedStatNames(m map[string]perf.Stat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
