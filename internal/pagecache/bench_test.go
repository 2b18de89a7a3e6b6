package pagecache

import (
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

func benchRig(opts Options) (*sim.Env, *Cache) {
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 26
	d := disk.New(env, p)
	return env, New(env, d, 1<<15, opts)
}

func BenchmarkCacheHitRead(b *testing.B) {
	env, c := benchRig(DefaultOptions())
	env.Go("warm", func(p *sim.Proc) { c.Read(p, nil, 0, 1024, disk.StageNone) })
	env.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Go("r", func(p *sim.Proc) { c.Read(p, nil, 0, 1024, disk.StageNone) })
		env.Run(0)
	}
}

func BenchmarkCacheColdSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, c := benchRig(DefaultOptions())
		env.Go("r", func(p *sim.Proc) {
			rs := &ReadState{}
			for j := 0; j < 256; j++ {
				c.Read(p, rs, int64(j*16*PageSectors), 16*PageSectors, disk.StageNone)
			}
		})
		env.Run(0)
		env.Close() // the parked daemons would keep every testbed alive
	}
}

// BenchmarkAblationReadahead contrasts virtual completion time of a
// sequential scan with and without prefetching.
func BenchmarkAblationReadahead(b *testing.B) {
	for _, c := range []struct {
		name string
		off  bool
	}{{"readahead", false}, {"none", true}} {
		b.Run(c.name, func(b *testing.B) {
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions()
				opts.NoReadahead = c.off
				env, cache := benchRig(opts)
				env.Go("r", func(p *sim.Proc) {
					rs := &ReadState{}
					for j := 0; j < 512; j++ {
						cache.Read(p, rs, int64(j*4*PageSectors), 4*PageSectors, disk.StageNone)
					}
				})
				vt, _ = env.Run(0)
				env.Close()
			}
			b.ReportMetric(vt.Seconds()*1000, "virtual-ms")
		})
	}
}

// BenchmarkThrottleAmongCleanPages is io_storm's writeback pattern: thousands
// of clean resident pages, and a writer crossing the hard dirty ratio in
// one-page writes, so each throttle flushes a round of ~165 dirty pages that
// lie above 8192 clean ones in page order. An op is 1024 writes (five
// throttles) and, once the writer is done, the expiry of what it left dirty.
func BenchmarkThrottleAmongCleanPages(b *testing.B) {
	const clean = 8192
	opts := DefaultOptions()
	opts.DirtyHardRatio = 0.01 // 327 of the rig's 32768 pages
	env, c := benchRig(opts)
	defer env.Close()
	env.Go("warm", func(p *sim.Proc) {
		for n := int64(0); n < clean; n += 128 {
			c.Read(p, nil, n*PageSectors, 128*PageSectors, disk.StageNone)
		}
	})
	env.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Go("w", func(p *sim.Proc) {
			for n := int64(clean); n < clean+1024; n++ {
				c.Write(p, n*PageSectors, PageSectors, disk.StageNone)
			}
		})
		env.Run(0)
	}
	b.ReportMetric(float64(c.Stats().ThrottleStalls)/float64(b.N), "stalls/op")
}

func BenchmarkWriteAndSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, c := benchRig(DefaultOptions())
		env.Go("w", func(p *sim.Proc) {
			for j := 0; j < 512; j++ {
				c.Write(p, int64(j*8*PageSectors), 8*PageSectors, disk.StageNone)
			}
			c.Sync(p)
		})
		env.Run(0)
		env.Close()
	}
}
