package system

import (
	"sync"
	"testing"

	"c3/internal/cpu"
	"c3/internal/gen"
)

// TestConcurrentBuildsShareTables builds and runs machines of one
// protocol pair from several goroutines at once. Every machine shares
// one compound table and its specs (gen.Shared), so under -race a write
// to either from a running controller fails this test.
func TestConcurrentBuildsShareTables(t *testing.T) {
	want, err := gen.Shared("moesi", "cxl")
	if err != nil {
		t.Fatal(err)
	}
	const workers, builds, incs = 4, 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < builds; i++ {
				s, err := New(twoClusters("mesi", "moesi", "cxl", 1, int64(w*builds+i)))
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.Clusters[1].C3.Table(); got != want {
					t.Errorf("worker %d: cluster 1 has a private table, want the shared one", w)
				}
				// Contended increments drive delegations, snoops and
				// conflicts through both tables.
				var srcs []*cpu.SliceSource
				for cl := 0; cl < 2; cl++ {
					var prog []cpu.Instr
					for n := 0; n < incs; n++ {
						prog = append(prog, cpu.Instr{Kind: cpu.RMWAdd, Addr: addr(n % 2), Val: 1, Reg: n})
					}
					src := cpu.NewSliceSource(prog)
					srcs = append(srcs, src)
					s.AttachSource(cl, 0, src)
				}
				if !s.Run(evLimit) {
					t.Errorf("worker %d build %d: system did not finish", w, i)
				}
				tickets := map[uint64]int{}
				for _, src := range srcs {
					for reg, v := range src.Regs {
						tickets[uint64(reg%2)<<32|v]++
					}
				}
				if len(tickets) != 2*incs {
					t.Errorf("worker %d build %d: %d distinct RMW tickets, want %d", w, i, len(tickets), 2*incs)
				}
				s.Release()
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkSystemBuild prices New + Release of a litmus-size machine
// (two one-core MESI clusters under CXL, Table III caches): the set-up
// the litmus runner pays once per iteration. CI holds its bytes/op
// under a budget, so set-up that grows with cache capacity or
// re-generates tables cannot return unnoticed.
func BenchmarkSystemBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(twoClusters("mesi", "mesi", "cxl", 1, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}
