package workloads

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iochar/internal/datagen"
)

// handoffGen generates part 0 only once part 1 exists, so a caller that
// claimed part 0 can finish only if another caller, finding part 0 claimed,
// moves on to part 1 instead of waiting for it.
type handoffGen struct {
	part1 chan struct{}
	calls *atomic.Int64
}

func (g handoffGen) Part(part int, size int64) []byte {
	g.calls.Add(1)
	if part == 1 {
		close(g.part1)
	} else {
		select {
		case <-g.part1:
		case <-time.After(10 * time.Second):
			panic("part 0 waited for part 1, which no caller generated")
		}
	}
	return datagen.TeraGen{Seed: 1}.Part(part, size)
}

// TestPartTableSplitsGeneration: two callers that load one input together
// split its parts, neither waiting on a part the other is generating while
// one is left unclaimed; each part is generated once, and both get the same
// bytes.
func TestPartTableSplitsGeneration(t *testing.T) {
	in := NewPartTable()
	gen := handoffGen{make(chan struct{}), new(atomic.Int64)}
	var wg sync.WaitGroup
	got := make([][][]byte, 2)
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = in.Parts(gen, 2, 1000)
		}()
	}
	wg.Wait()
	if n := gen.calls.Load(); n != 2 {
		t.Errorf("generated %d parts, want 2", n)
	}
	for i := range 2 {
		if &got[0][i][0] != &got[1][i][0] {
			t.Errorf("part %d: the two callers got different arrays", i)
		}
	}
	// Another size is another part; the same generator value is the same.
	if other := in.Parts(gen, 1, 500); &other[0][0] == &got[0][0][0] {
		t.Error("a part of another size came from the table")
	}
	if again := in.Parts(gen, 2, 1000); &again[1][0] != &got[0][1][0] || gen.calls.Load() != 3 {
		t.Errorf("a third load regenerated (%d generations)", gen.calls.Load())
	}
}
