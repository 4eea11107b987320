// Package parallel is the run-level execution engine behind the
// experiment harness: a bounded worker pool with an ordered-results API.
//
// The simulator's evaluation is embarrassingly parallel — Table IV is
// 7 litmus tests x 2 protocol combos x 3 MCM combos of independent
// campaigns, and the figure sweeps are hundreds of independent workload
// runs — and every run owns a private sim.Kernel and system.System, so
// fan-out is safe by construction. What the pool adds on top of naked
// goroutines is determinism discipline:
//
//   - results come back indexed by item, never by completion order;
//   - the error returned is always the lowest-index failure (items are
//     claimed in index order, so every item below the first failure runs
//     to completion and the selection is reproducible);
//   - an optional done callback fires in item order as the completed
//     prefix grows, for live progress output that is byte-identical from
//     run to run and worker count to worker count;
//   - worker panics are captured and surfaced as errors identifying the
//     item, instead of killing the process from a nameless goroutine.
//
// Workers <= 0 defaults to GOMAXPROCS; Workers == 1 runs inline on the
// caller's goroutine (no pool, no locks), which is also the degenerate
// case the determinism tests compare against. Soak sweeps, whose rows
// must outlive their siblings' failures and be retried, resumed and
// distributed, are not pool work: they run on litmus's lease queue.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values > 0 are used as given,
// anything else defaults to GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic captured from a pool item.
type PanicError struct {
	Item  int
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v\n%s", p.Item, p.Value, p.Stack)
}

// item states for the ordered-progress frontier.
const (
	statePending = iota
	stateDone
	stateFailed
)

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results indexed by i. The first error (by item index)
// cancels the pool: items not yet claimed never start, in-flight items
// finish, and the lowest-index error is returned. ctx cancellation stops
// claiming new items and is returned if no item failed first.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapOrdered(ctx, workers, n, fn, nil)
}

// MapOrdered is Map plus a done callback invoked in item order as the
// contiguous prefix of completed items grows (never concurrently, never
// out of order, and never past the first failed item). It exists so
// progress output stays live under parallel execution without becoming
// nondeterministic.
func MapOrdered[T any](ctx context.Context, workers, n int, fn func(i int) (T, error), done func(i int, v T)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Item: i, Value: r, Stack: debug.Stack()}
			}
		}()
		v, err := fn(i)
		if err == nil {
			results[i] = v
		}
		return err
	}

	if workers == 1 {
		// Inline serial path: no goroutines, no locks. This is the
		// reference behavior the parallel path must reproduce.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := call(i); err != nil {
				return nil, err
			}
			if done != nil {
				done(i, results[i])
			}
		}
		return results, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		state   = make([]uint8, n)
		flushed int
	)
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			state[i] = stateFailed
		} else {
			state[i] = stateDone
		}
		for flushed < n && state[flushed] != statePending {
			if state[flushed] == stateFailed {
				flushed = n
				break
			}
			if done != nil {
				done(flushed, results[flushed])
			}
			flushed++
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := call(i)
				if err != nil {
					errs[i] = err
					cancel()
				}
				finish(i, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
