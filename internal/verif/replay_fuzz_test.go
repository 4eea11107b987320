package verif

import (
	"reflect"
	"strings"
	"testing"

	"c3/internal/litmus"
)

// FuzzReplay drives witness replay down delivery paths the fuzzer picks.
// The first byte chooses the machine (MP, CoRR2, or MP under TinyLLC,
// which forces CXL-cache evictions); each later byte picks the next
// delivery, taken modulo the enabled count, except that a byte of 0xf8
// or more is passed through raw, usually out of range, and ends the
// path. Replaying the path twice must yield a result or the "replay
// diverged" error, never a panic, and both replays must agree. POR
// expands one representative interleaving per independent set; replay
// walks any of them, so this reaches protocol-state histories the
// checker never builds.
func FuzzReplay(f *testing.F) {
	tiny := wmoCXL(f, "MP", litmus.SyncFull)
	tiny.TinyLLC = true
	cfgs := []ModelConfig{wmoCXL(f, "MP", litmus.SyncFull), wmoCXL(f, "CoRR2", litmus.SyncFull), tiny}
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 3, 1, 0, 0, 2, 1, 0, 1, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8})
	f.Add([]byte{2, 0, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mcfg := cfgs[int(data[0])%len(cfgs)]
		m, err := replay(mcfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var path []uint16
		for _, b := range data[1:] {
			if b >= 0xf8 {
				path = append(path, uint16(b))
				break
			}
			acts := m.Fabric.Enabled()
			if len(acts) == 0 {
				break
			}
			i := int(b) % len(acts)
			path = append(path, uint16(i))
			m.Step(acts[i])
		}
		m.Release()
		r1, err1 := Replay(mcfg, path)
		r2, err2 := Replay(mcfg, path)
		for _, err := range []error{err1, err2} {
			if err != nil && !strings.Contains(err.Error(), "replay diverged") {
				t.Fatalf("replay of %v: %v", path, err)
			}
		}
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("replays of %v disagree: %v vs %v", path, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("replays of %v disagree: %+v vs %+v", path, r1, r2)
		}
	})
}
