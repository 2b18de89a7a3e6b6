package workloads

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/sim"
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

// countingTables counts the snapshot passes it runs.
type countingTables struct{ calls *atomic.Int64 }

func (g countingTables) Table(part int, size int64) *datagen.TeraTable {
	g.calls.Add(1)
	return datagen.TeraGen{Seed: 1}.Table(part, size)
}

// TestPartTableSharesSnapshotTables: callers that load one TeraSort input
// together get the same tables, each from one snapshot pass, and byte parts
// of the same generator are entries of their own.
func TestPartTableSharesSnapshotTables(t *testing.T) {
	in := NewPartTable()
	gen := countingTables{new(atomic.Int64)}
	var wg sync.WaitGroup
	got := make([][]*datagen.TeraTable, 2)
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = in.Tables(gen, 3, 50_000)
		}()
	}
	wg.Wait()
	if n := gen.calls.Load(); n != 3 {
		t.Errorf("ran %d snapshot passes, want 3", n)
	}
	for i := range 3 {
		if got[0][i] != got[1][i] {
			t.Errorf("part %d: the two callers got different tables", i)
		}
	}
	tera := datagen.TeraGen{Seed: 1}
	if tab := in.Tables(tera, 1, 50_000)[0]; tab == got[0][0] || len(in.Parts(tera, 1, 50_000)[0]) != int(tab.Size()) {
		t.Error("another generator value shared a table, or its byte part is not the table's size")
	}
}

// TestTeraSortPrepareKeepsNoInput: TeraSort's Prepare loads its input as
// snapshot tables, allocating less than 1 % of the input's size with
// integrity off and on (a generated block's sums are made only when a
// replica needs them), and every input file reads back the bytes Part
// makes.
func TestTeraSortPrepareKeepsNoInput(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		testTeraSortPrepareKeepsNoInput(t, integrity)
	}
}

func testTeraSortPrepareKeepsNoInput(t *testing.T, integrity bool) {
	env := sim.New(1)
	defer env.Close()
	cl, err := cluster.New(env, cluster.DefaultHardware(16384), 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(env, hdfs.Config{BlockSize: 1 << 20}, cl.Net, cl.Slaves)
	if integrity {
		fs.EnableIntegrity()
	}
	const total = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewTeraSort().Prepare(fs, cl, NewPartTable(), total, 1)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= total/100 {
		t.Errorf("integrity %v: Prepare allocated %d bytes for a %d-byte input, want under 1 %%", integrity, n, total)
	} else {
		t.Logf("integrity %v: Prepare allocated %d bytes for a %d-byte input", integrity, n, total)
	}
	env.Go("check", func(p *sim.Proc) {
		for i, path := range fs.List("/bench/TS/in/") {
			r, err := fs.Open(path, cl.Slaves[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadAt(p, 0, r.Size())
			if want := (datagen.TeraGen{Seed: 1}).Part(i, total/4); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %v, or not Part's %d bytes", path, err, len(want))
			}
		}
	})
	env.Run(0)
}
