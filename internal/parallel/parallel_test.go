package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatalf("Workers(4) = %d", Workers(4))
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", Workers(-3))
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		got, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty Map: %v, %v", got, err)
	}
}

func TestMapWorkerBound(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 3, 64, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("concurrency peaked at %d, want <= 3", p)
	}
}

// TestMapLowestIndexError: the reported error must be the lowest-index
// failure regardless of completion order, because items below it are
// always claimed first and run to completion.
func TestMapLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 50, func(i int) (int, error) {
			if i == 7 || i == 30 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want boom 7", workers, err)
		}
	}
}

func TestMapErrorCancelsUnstarted(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatal("error did not cancel remaining items")
	}
}

func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 10, func(i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want PanicError", workers, err)
		}
		if pe.Item != 3 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("PanicError = {Item:%d Value:%v stack:%d bytes}", pe.Item, pe.Value, len(pe.Stack))
		}
	}
}

// TestMapOrderedDoneInOrder: the done callback must fire exactly once per
// item, in item order, serialized, for every worker count.
func TestMapOrderedDoneInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var mu sync.Mutex
		var seen []int
		_, err := MapOrdered(context.Background(), workers, 200,
			func(i int) (int, error) {
				if i%5 == 0 {
					time.Sleep(time.Duration(i%7) * 10 * time.Microsecond)
				}
				return i, nil
			},
			func(i int, v int) {
				mu.Lock()
				seen = append(seen, i)
				mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 200 {
			t.Fatalf("workers=%d: done fired %d times, want 200", workers, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: done order broken at %d: %v...", workers, i, seen[:i+1])
			}
		}
	}
}

// TestMapOrderedDoneStopsAtError: done must never fire for items at or
// past the first failure.
func TestMapOrderedDoneStopsAtError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		_, err := MapOrdered(context.Background(), workers, 40,
			func(i int) (int, error) {
				if i == 11 {
					return 0, errors.New("stop")
				}
				return i, nil
			},
			func(i int, v int) {
				mu.Lock()
				seen = append(seen, i)
				mu.Unlock()
			})
		if err == nil {
			t.Fatal("expected error")
		}
		for _, v := range seen {
			if v >= 11 {
				t.Fatalf("workers=%d: done fired for item %d past the failure", workers, v)
			}
		}
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		for ran.Load() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		cancel()
	}()
	_, err := Map(ctx, 2, 1_000_000, func(i int) (int, error) {
		ran.Add(1)
		time.Sleep(10 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1_000_000 {
		t.Fatal("cancel did not stop the pool")
	}
}
