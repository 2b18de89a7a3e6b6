package iostat

import (
	"math"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

func testDisk(env *sim.Env) *disk.Disk {
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	return disk.New(env, p)
}

func TestDeriveBandwidth(t *testing.T) {
	prev := disk.Stats{}
	cur := disk.Stats{
		SectorsRead:     2048, // 1 MiB
		SectorsWritten:  4096, // 2 MiB
		ReadsCompleted:  8,
		WritesCompleted: 16,
		TimeReading:     80 * time.Millisecond,
		TimeWriting:     160 * time.Millisecond,
		IOTicks:         120 * time.Millisecond,
	}
	s := Derive(prev, cur, time.Second, 1)
	if math.Abs(s.RMBs-1) > 1e-9 {
		t.Errorf("RMBs = %f, want 1", s.RMBs)
	}
	if math.Abs(s.WMBs-2) > 1e-9 {
		t.Errorf("WMBs = %f, want 2", s.WMBs)
	}
	if math.Abs(s.Util-12) > 1e-9 {
		t.Errorf("Util = %f, want 12", s.Util)
	}
	// await = 240ms / 24 requests = 10ms; svctm = 120ms/24 = 5ms; wait = 5ms.
	if math.Abs(s.AwaitMs-10) > 1e-9 {
		t.Errorf("AwaitMs = %f, want 10", s.AwaitMs)
	}
	if math.Abs(s.SvctmMs-5) > 1e-9 {
		t.Errorf("SvctmMs = %f, want 5", s.SvctmMs)
	}
	if math.Abs(s.WaitMs-5) > 1e-9 {
		t.Errorf("WaitMs = %f, want 5", s.WaitMs)
	}
	// avgrq-sz = 6144 sectors / 24 requests = 256.
	if math.Abs(s.AvgrqSz-256) > 1e-9 {
		t.Errorf("AvgrqSz = %f, want 256", s.AvgrqSz)
	}
}

func TestDeriveMultiDeviceUtilAveraged(t *testing.T) {
	cur := disk.Stats{IOTicks: time.Second, ReadsCompleted: 1, SectorsRead: 8}
	s := Derive(disk.Stats{}, cur, time.Second, 3)
	// One device-second of busy time across 3 devices over 1s = 33.3%.
	if math.Abs(s.Util-100.0/3) > 1e-6 {
		t.Errorf("Util = %f, want 33.33", s.Util)
	}
}

func TestDeriveZeroElapsed(t *testing.T) {
	s := Derive(disk.Stats{}, disk.Stats{SectorsRead: 100}, 0, 1)
	if s.RMBs != 0 || s.Util != 0 {
		t.Error("zero elapsed must derive zero sample")
	}
}

func TestDeriveIdleIntervalAllZero(t *testing.T) {
	st := disk.Stats{SectorsRead: 5000, ReadsCompleted: 10, IOTicks: time.Second}
	s := Derive(st, st, time.Second, 1)
	if s.RMBs != 0 || s.WMBs != 0 || s.Util != 0 || s.AwaitMs != 0 || s.AvgrqSz != 0 {
		t.Errorf("idle interval should be all zero, got %+v", s)
	}
}

func TestMonitorSamplesAtInterval(t *testing.T) {
	env := sim.New(1)
	d := testDisk(env)
	m := NewMonitor(100 * time.Millisecond)
	m.AddGroup("data", d)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			d.Do(p, disk.Write, int64(i*1024), 1024)
			p.Sleep(20 * time.Millisecond)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	rep := m.Report("data")
	if rep == nil {
		t.Fatal("missing report")
	}
	if rep.WMBs.Len() < 5 {
		t.Fatalf("only %d samples; expected several 100ms intervals", rep.WMBs.Len())
	}
	if rep.WMBs.Max() <= 0 {
		t.Error("write bandwidth never positive")
	}
	if rep.TotalWrittenBytes != 20*1024*disk.SectorSize {
		t.Errorf("TotalWrittenBytes = %d, want %d", rep.TotalWrittenBytes, 20*1024*disk.SectorSize)
	}
}

func TestMonitorStopsSampling(t *testing.T) {
	env := sim.New(1)
	d := testDisk(env)
	m := NewMonitor(10 * time.Millisecond)
	m.AddGroup("g", d)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		d.Do(p, disk.Read, 0, 512)
		m.Stop(p.Now())
	})
	end, _ := env.Run(0)
	// The sampler must exit promptly after Stop, not keep the sim alive.
	if end > time.Second {
		t.Errorf("simulation ran to %v; sampler failed to stop", end)
	}
}

func TestMonitorGroupAggregation(t *testing.T) {
	env := sim.New(1)
	d1, d2, d3 := testDisk(env), testDisk(env), testDisk(env)
	m := NewMonitor(50 * time.Millisecond)
	m.AddGroup("hdfs", d1, d2, d3)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		// Only d1 is busy; group util must be ~1/3 of a single-device run.
		for i := 0; i < 10; i++ {
			d1.Do(p, disk.Write, int64(i*2048), 2048)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	rep := m.Report("hdfs")
	if rep.Util.Max() > 40 {
		t.Errorf("group util max = %f, should be ~33%% when 1 of 3 disks is busy", rep.Util.Max())
	}
	if rep.Util.Max() <= 0 {
		t.Error("group util should be positive")
	}
}

func TestMonitorDuplicateGroupPanics(t *testing.T) {
	env := sim.New(1)
	d := testDisk(env)
	m := NewMonitor(time.Second)
	m.AddGroup("x", d)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.AddGroup("x", d)
}

func TestMonitorUnknownReportNil(t *testing.T) {
	m := NewMonitor(time.Second)
	if m.Report("nope") != nil {
		t.Error("unknown group should return nil")
	}
}

func TestAwaitExceedsSvctmUnderQueueing(t *testing.T) {
	env := sim.New(1)
	d := testDisk(env)
	m := NewMonitor(time.Second)
	m.AddGroup("g", d)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		// Burst of scattered requests builds a queue: await > svctm.
		var reqs []*disk.Request
		for i := 0; i < 32; i++ {
			reqs = append(reqs, d.Submit(disk.Read, int64(i)*500_000, 8))
		}
		for _, r := range reqs {
			d.Wait(p, r)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	rep := m.Report("g")
	await, svctm := rep.AwaitMs.MeanNonzero(), rep.SvctmMs.MeanNonzero()
	if await <= svctm {
		t.Errorf("await %f should exceed svctm %f under queueing", await, svctm)
	}
}

func TestSequentialStreamHasLargerAvgrqSzThanRandom(t *testing.T) {
	run := func(random bool) float64 {
		env := sim.New(1)
		d := testDisk(env)
		m := NewMonitor(5 * time.Millisecond)
		m.AddGroup("g", d)
		m.Start(env)
		env.Go("load", func(p *sim.Proc) {
			if random {
				for i := 0; i < 64; i++ {
					d.Do(p, disk.Read, int64(env.Rand().Int63n(1<<23)), 16)
				}
			} else {
				// Async sequential stream: requests merge in the queue.
				var reqs []*disk.Request
				for i := 0; i < 64; i++ {
					reqs = append(reqs, d.Submit(disk.Read, int64(i*256), 256))
				}
				for _, r := range reqs {
					d.Wait(p, r)
				}
			}
			m.Stop(p.Now())
		})
		env.Run(0)
		return m.Report("g").AvgrqSz.MeanNonzero()
	}
	seq, rnd := run(false), run(true)
	if seq <= rnd*2 {
		t.Errorf("sequential avgrq-sz %f should be well above random %f", seq, rnd)
	}
}

func TestUtilPoolRecordsPerDiskSamples(t *testing.T) {
	env := sim.New(1)
	d1, d2, d3 := testDisk(env), testDisk(env), testDisk(env)
	m := NewMonitor(50 * time.Millisecond)
	m.AddGroup("g", d1, d2, d3)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		// Saturate only d1 for ~0.3s.
		for i := 0; i < 100; i++ {
			d1.Do(p, disk.Write, int64(i*2048), 2048)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	rep := m.Report("g")
	// Three per-disk samples per interval.
	if rep.UtilPool.Len() != 3*rep.Util.Len() {
		t.Fatalf("UtilPool has %d samples for %d intervals x 3 disks", rep.UtilPool.Len(), rep.Util.Len())
	}
	// The busy disk's samples push the pool max near 100 even though the
	// group average stays near 33.
	if rep.UtilPool.Max() < 90 {
		t.Errorf("pool max = %.1f, want the saturated disk visible (>90)", rep.UtilPool.Max())
	}
	if rep.Util.Max() > 50 {
		t.Errorf("group mean max = %.1f, want smoothing (<50)", rep.Util.Max())
	}
	// The paper's ratio statistic distinguishes them.
	if rep.UtilPool.FracAbove(90) <= rep.Util.FracAbove(90) {
		t.Error("per-disk pool should see more >90%% samples than the group average")
	}
}

func TestHistsObserve(t *testing.T) {
	env := sim.New(1)
	d := testDisk(env)
	h := NewHists()
	d.Subscribe(h.Observe)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			d.Do(p, disk.Read, int64(i)<<16, 64)
		}
	})
	env.Run(0)
	if h.Requests != 16 {
		t.Fatalf("Requests = %d, want 16", h.Requests)
	}
	p50, p95 := h.Await.Quantile(0.50), h.Await.Quantile(0.95)
	if !(p50 > 0 && p50 <= p95 && p95 <= h.AwaitMaxMs*1.5) {
		t.Errorf("await quantiles inconsistent: p50=%g p95=%g max=%g", p50, p95, h.AwaitMaxMs)
	}
	if h.Svctm.Quantile(0.5) <= 0 || h.Size.Quantile(0.5) <= 0 {
		t.Error("svctm/size histograms empty")
	}
	if h.SizeMax != 64 {
		t.Errorf("SizeMax = %g, want 64", h.SizeMax)
	}
}
