package disk

import (
	"fmt"
	"testing"
	"time"

	"iochar/internal/sim"
)

// runPattern drives n requests through a fresh disk and returns the virtual
// completion time and the disk — the ablation quantities (wall time is the
// benchmark's own).
func runPattern(b *testing.B, sched Sched, noMerge bool, random bool, n int) (time.Duration, *Disk) {
	b.Helper()
	env := sim.New(1)
	p := SeagateST1000NM0011()
	p.Sectors = 1 << 26
	p.Scheduler = sched
	p.NoMerge = noMerge
	d := New(env, p)
	for s := 0; s < 8; s++ {
		s := s
		env.Go(fmt.Sprintf("w%d", s), func(pr *sim.Proc) {
			pos := int64(s) << 20
			// Submit in batches of 8 so the queue has depth — the block
			// layer only merges requests it can see waiting.
			for i := 0; i < n/8; i += 8 {
				var reqs []*Request
				for j := 0; j < 8; j++ {
					var sector int64
					if random {
						sector = env.Rand().Int63n(p.Sectors - 256)
					} else {
						sector = pos
						pos += 128
					}
					reqs = append(reqs, d.Submit(Write, sector, 128))
				}
				for _, r := range reqs {
					d.Wait(pr, r)
				}
			}
		})
	}
	end, _ := env.Run(0)
	return end, d
}

func BenchmarkDiskSequentialStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPattern(b, SchedLOOK, false, false, 800)
	}
}

func BenchmarkDiskRandomStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPattern(b, SchedLOOK, false, true, 800)
	}
}

// BenchmarkAblationScheduler contrasts LOOK and FIFO on the same random
// load: the elevator should finish the batch in less virtual time.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, c := range []struct {
		name  string
		sched Sched
	}{{"LOOK", SchedLOOK}, {"FIFO", SchedFIFO}} {
		b.Run(c.name, func(b *testing.B) {
			var vt time.Duration
			for i := 0; i < b.N; i++ {
				vt, _ = runPattern(b, c.sched, false, true, 800)
			}
			b.ReportMetric(vt.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkAblationMerging contrasts request merging on and off for
// contiguous writes. Sequential transfers take the same virtual time either
// way; what merging changes is the request count — exactly the avgrq-sz
// effect the paper's Figures 10-12 rest on.
func BenchmarkAblationMerging(b *testing.B) {
	for _, c := range []struct {
		name    string
		noMerge bool
	}{{"merge", false}, {"nomerge", true}} {
		b.Run(c.name, func(b *testing.B) {
			var completed uint64
			for i := 0; i < b.N; i++ {
				_, d := runPattern(b, SchedLOOK, c.noMerge, false, 800)
				completed = d.Stats().WritesCompleted
			}
			b.ReportMetric(float64(completed), "requests")
		})
	}
}

func BenchmarkServiceTime(b *testing.B) {
	env := sim.New(1)
	d := New(env, SeagateST1000NM0011())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.serviceFor(Read, int64(i%1_000_000)*977, 64)
	}
}
