package localfs

import (
	"fmt"
	"runtime"
	"testing"

	"iochar/internal/sim"
)

// The three write shapes the simulator produces: a small log rotated every
// 16 appends (io_storm, the journals), a spill or merge file of a few large
// partitions, and the replicas of one loaded block.

// appendFiles writes and deletes rounds files of appends chunks each.
func appendFiles(p *sim.Proc, fs *FS, chunk []byte, appends, rounds int) {
	for r := 0; r < rounds; r++ {
		f := fs.Create("f")
		for i := 0; i < appends; i++ {
			f.Append(p, chunk)
		}
		if err := fs.Delete("f"); err != nil {
			panic(err)
		}
	}
}

// installReplicas installs block into three files, rounds times over.
func installReplicas(fs *FS, block []byte, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < 3; i++ {
			fs.Create(fmt.Sprintf("blk_%d", i)).Install(block)
		}
	}
}

func BenchmarkAppendSmall(b *testing.B) {
	env, _, fs := rig()
	chunk := payload(4 << 10)
	b.SetBytes(16 * int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("w", func(p *sim.Proc) { appendFiles(p, fs, chunk, 16, b.N) })
	env.Run(0)
}

func BenchmarkAppendSegments(b *testing.B) {
	env, _, fs := rig()
	chunk := payload(1 << 20)
	b.SetBytes(8 * int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("w", func(p *sim.Proc) { appendFiles(p, fs, chunk, 8, b.N) })
	env.Run(0)
}

func BenchmarkInstallReplicas(b *testing.B) {
	_, _, fs := rig()
	block := payload(1 << 20)
	b.SetBytes(3 * int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	installReplicas(fs, block, b.N)
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestAllocationPerByteStored guards the nobody-copies rule where it is cheap
// to measure: Append may allocate bookkeeping (segment list, extents,
// page-cache pages) and nothing the size of its payload, Install next to
// nothing.
func TestAllocationPerByteStored(t *testing.T) {
	const rounds = 8
	small, large := payload(4<<10), payload(1<<20)
	for _, c := range []struct {
		name   string
		stored int // bytes per round
		limit  float64
		run    func(p *sim.Proc, fs *FS)
	}{
		{"Append 16 x 4 KiB", 16 * len(small), 0.1, func(p *sim.Proc, fs *FS) { appendFiles(p, fs, small, 16, rounds) }},
		{"Append 8 x 1 MiB", 8 * len(large), 0.1, func(p *sim.Proc, fs *FS) { appendFiles(p, fs, large, 8, rounds) }},
		{"Install 3 x 1 MiB", 3 * len(large), 0.05, func(_ *sim.Proc, fs *FS) { installReplicas(fs, large, rounds) }},
	} {
		env, _, fs := rig()
		var perByte float64
		env.Go("w", func(p *sim.Proc) {
			perByte = allocated(func() { c.run(p, fs) }) / float64(rounds*c.stored)
		})
		env.Run(0)
		t.Logf("%s: %.3f bytes allocated per byte stored", c.name, perByte)
		if perByte > c.limit {
			t.Errorf("%s: %.3f bytes allocated per byte stored, limit %.2f", c.name, perByte, c.limit)
		}
	}
}
