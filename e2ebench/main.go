// Command e2ebench is the repository's end-to-end benchmark. It drives
// the timed simulator (workload.RunOn), the exhaustive checker
// (verif.Check) and the soak harness (litmus.RunSoak) through their
// public entry points only, checks their outputs, and prints one JSON
// result line:
//
//	e2ebench --workload sim-contended --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 a separate traced measurement times
// calls into each module from the outside and reports the per-layer
// metrics. Progress and failures go to standard error; standard output
// holds only the result line. README.md in this directory documents the
// workloads, the metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// bench is one workload. setup builds the inputs and runs an untimed
// warm-up; it is repeated to time set-up. measure runs timed units
// until the deadline. trace runs the separate traced measurement.
type bench interface {
	setup() error
	measure(deadline time.Time, t *tally)
	trace(deadline time.Time, t *tally, rows map[string]float64)
}

var workloads = map[string]func(seed int64) bench{
	"sim-contended": func(seed int64) bench { return newSim("histogram", seed) },
	"sim-private":   func(seed int64) bench { return newSim("vips", seed) },
	"check-corpus":  newCheck,
	"soak-crash":    newSoak,
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 9

// tally accumulates one run's timed units and passes.
type tally struct {
	unitMS []float64 // host ms per unit (one simulation, test exploration, or soak row)
	passes []pass

	attempted, failed int
}

// pass is one timed pass over the workload's unit set. Throughputs are
// medians over passes, so a short host stall moves one pass, not the
// run's figure.
type pass struct {
	secs  float64
	ops   float64 // simulated memory ops retired
	execs float64 // independent executions (simulations, terminal interleavings, litmus iterations)
}

// fail records a failed unit and prints why.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: metric names
// and units. Reading them here keeps the printed names and units in
// lockstep with the declared ones.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload %v --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(mk(*seed), *seconds, *traced == 1, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric names: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &sp, nil
}

func run(b bench, seconds int, traced bool, sp *spec) (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var t tally
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	values := map[string]float64{}
	declared := sp.EndToEnd
	if traced {
		b.trace(deadline, &t, values)
		declared = sp.PerLayer
		if t.attempted > 0 {
			values["failed_frac"] = float64(t.failed) / float64(t.attempted)
		}
	} else {
		b.measure(deadline, &t)
		if len(t.unitMS) == 0 || len(t.passes) == 0 {
			return nil, errors.New("no unit completed")
		}
		var secs, opsRate, execRate []float64
		for _, p := range t.passes {
			secs = append(secs, p.secs)
			opsRate = append(opsRate, p.ops/p.secs)
			execRate = append(execRate, p.execs/p.secs)
		}
		values["setup_s"] = quantile(setups, 0.5)
		values["sim_ops_per_s"] = quantile(opsRate, 0.5)
		values["check_pass_s"] = quantile(secs, 0.5)
		values["soak_iters_per_s"] = quantile(execRate, 0.5)
		values["run_ms_p50"] = quantile(t.unitMS, 0.5)
		values["run_ms_p90"] = quantile(t.unitMS, 0.9)
		values["max_rss_mb"] = maxRSSMB()
		fmt.Fprintf(os.Stderr, "e2ebench: %d units and %d passes timed\n", t.attempted, len(t.passes))
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range declared {
		v, ok := values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s not computed", d.Name)
		}
		// A per-layer row the workload does not exercise reads 0.
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	for n := range values {
		return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", n)
	}
	if res.Attempted == 0 {
		return nil, errors.New("no unit attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB reports the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
