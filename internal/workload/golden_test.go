package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"c3/internal/cpu"
)

// TestSimulationGoldens pins three kernels on both global protocols and
// two cluster pairs at c3sim's defaults (4 cores per cluster, ARM
// ordering, seed 1): the kernel's event count, the simulated cycles, the
// retired ops and a SHA-256 of the system.Metrics() JSON. Every
// simulation is deterministic, so a change that only moves host time or
// allocation must leave all four bit-identical; a change that moves
// simulated behaviour must update the table and say why.
func TestSimulationGoldens(t *testing.T) {
	type golden struct {
		events, cycles, ops uint64
		metrics             string // SHA-256 of the metrics JSON, hex
	}
	want := map[string]golden{
		"histogram/cxl/mesi-mesi":   {174568, 190652, 80024, "846098aa25771d6c7ee06e44ee0460704cb69fbc218aedc6fbda3e0d01aa8cbc"},
		"histogram/cxl/rcc-mesi":    {317689, 194841, 80024, "9a60e3f1f405b262a2854c2ca0d7ae8bfcb281fa81dc4b518c6bc3a07fa85f00"},
		"histogram/hmesi/mesi-mesi": {168411, 128965, 80024, "1de3695cd6b103b3bd03addff7eb618143c436f14f7ab26d1f4028863fd3153c"},
		"histogram/hmesi/rcc-mesi":  {312678, 141370, 80024, "4cdce6b9ee3c344aff89899690f80eaf2b3ff85c29bce848062b7a95faf1a4e7"},
		"vips/cxl/mesi-mesi":        {147706, 51129, 80024, "63d8f4bdc3378704e115f75948fdf9512ffd29e54903f4fb0e3574e8c5ed8b7f"},
		"vips/cxl/rcc-mesi":         {165631, 51538, 80024, "cac578c698839208613824a7e150405f49e973dcb9e8f64780851bf927951952"},
		"vips/hmesi/mesi-mesi":      {147640, 50856, 80024, "b152d2ef4f79368aef61acd8957c96b22604ae7c6548e9c22944d113542d0e66"},
		"vips/hmesi/rcc-mesi":       {165617, 50773, 80024, "efd67a0cedf8bb94e841f526d1d4a8472244c62a2cbf5c31c4068ef84dc68344"},
		"canneal/cxl/mesi-mesi":     {203007, 133416, 80024, "b0e947d6d2b2a8f66f0fbd3f2d18a1a77b0d55aabe4f7d58b0a28f09e0ae7da3"},
		"canneal/cxl/rcc-mesi":      {330429, 144017, 80024, "6b756851889c41ab077c24bd578b73119e0b06d07ea73c262b7ba5ef1e8d56c3"},
		"canneal/hmesi/mesi-mesi":   {201518, 116596, 80024, "fe2de88a14c9c78c49ae154435555d2322e239661516564378666ea6f14216f6"},
		"canneal/hmesi/rcc-mesi":    {328953, 125849, 80024, "405c6cfd1503f7d95087c42df83d4f6fe1febe1783a3058ef35b913f171e93a0"},
	}
	for _, kernel := range []string{"histogram", "vips", "canneal"} {
		for _, global := range []string{"cxl", "hmesi"} {
			for _, locals := range [][2]string{{"mesi", "mesi"}, {"rcc", "mesi"}} {
				name := fmt.Sprintf("%s/%s/%s-%s", kernel, global, locals[0], locals[1])
				spec, ok := ByName(kernel)
				if !ok {
					t.Fatalf("no workload %q", kernel)
				}
				run, sys, err := RunOn(RunConfig{
					Spec: spec, Global: global, Locals: locals,
					MCMs: [2]cpu.MCM{cpu.WMO, cpu.WMO}, Seed: 1,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var js bytes.Buffer
				if err := sys.Metrics().RenderJSON(&js); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum := sha256.Sum256(js.Bytes())
				got := golden{sys.K.Stepped, uint64(run.Time), run.Miss.Ops, hex.EncodeToString(sum[:])}
				sys.Release()
				if got != want[name] {
					t.Errorf("%s: got %+v, want %+v", name, got, want[name])
				}
			}
		}
	}
}
