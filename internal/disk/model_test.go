package disk

import (
	"testing"
	"time"

	"iochar/internal/sim"
)

// newTestSSD is DataCenterSSD on an 8 GiB device.
func newTestSSD() Params {
	p := DataCenterSSD()
	p.Sectors = 1 << 24
	return p
}

// Regression (sweep order): pickLOOK must dispatch strictly in sweep order —
// ascending to the top request, then the full descending sweep — with the
// direction flip committed only when a request is actually dispatched from
// the reversed scan, and merged requests keeping their (possibly front-
// extended) position in the sweep.
func TestLOOKSweepOrderStableUnderMerges(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env) // LOOK scheduler, head at 0, ascending
	var order []int64
	var counts []int
	d.Subscribe(func(c Completion) {
		order = append(order, c.Sector)
		counts = append(counts, c.Count)
	})
	env.Go("load", func(p *sim.Proc) {
		first := d.Submit(Read, 4096, 8)
		// Let the service loop dispatch the first request, so everything
		// below queues behind it and is scheduled by one LOOK pass.
		p.Sleep(10 * time.Microsecond)
		reqs := []*Request{
			d.Submit(Read, 8000, 8),
			d.Submit(Read, 2000, 8),
			d.Submit(Read, 4200, 8),
			d.Submit(Read, 4208, 8), // back-merges into 4200 → one request [4200,4216)
			d.Submit(Read, 100, 8),
		}
		d.Wait(p, first)
		for _, r := range reqs {
			d.Wait(p, r)
		}
	})
	env.Run(0)
	// Head lands at 4104 after the first request. Ascending: 4200 (merged,
	// 16 sectors), 8000. No request remains above; the reversed sweep
	// dispatches 2000 then 100.
	wantOrder := []int64{4096, 4200, 8000, 2000, 100}
	wantCounts := []int{8, 16, 8, 8, 8}
	if len(order) != len(wantOrder) {
		t.Fatalf("completions = %v (counts %v), want sectors %v", order, counts, wantOrder)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] || counts[i] != wantCounts[i] {
			t.Fatalf("completion %d = sector %d count %d, want sector %d count %d (full order %v)",
				i, order[i], counts[i], wantOrder[i], wantCounts[i], order)
		}
	}
}

// An SSD pays no positional cost: service time is identical for adjacent and
// far-apart sectors, and writes are slower than reads per the configured
// asymmetry.
func TestSSDServiceFlatAndAsymmetric(t *testing.T) {
	env := sim.New(1)
	d := New(env, newTestSSD())
	if d.Class() != ClassSSD {
		t.Fatalf("Class = %v, want ssd", d.Class())
	}
	var near, far, write time.Duration
	env.Go("r", func(p *sim.Proc) {
		s := p.Now()
		d.Do(p, Read, 1, 64) // head at 0: non-contiguous for an HDD
		near = p.Now() - s
		s = p.Now()
		d.Do(p, Read, 1<<23, 64) // far end of the device
		far = p.Now() - s
		s = p.Now()
		w := d.Submit(Write, 1<<20, 64)
		d.Wait(p, w)
		write = p.Now() - s
	})
	env.Run(0)
	if near != far {
		t.Errorf("flash service time varies with distance: near %v, far %v", near, far)
	}
	if write <= near {
		t.Errorf("write %v should exceed read %v (program latency + lower bandwidth)", write, near)
	}
	hdd := New(sim.New(1), SeagateST1000NM0011())
	if hdd.Class() != ClassHDD {
		t.Errorf("Class = %v, want hdd", hdd.Class())
	}
}

// Channel parallelism: N requests across C channels overlap, so the
// makespan is ceil(N/C) service times, not N; busy accounting (IOTicks,
// hence %util) covers the union of in-service intervals exactly once.
func TestSSDChannelParallelismAccounting(t *testing.T) {
	const channels, requests = ssdChannels, 2 * ssdChannels
	env := sim.New(1)
	p := newTestSSD()
	p.NoMerge = true
	d := New(env, p)
	service := d.serviceFor(Read, 0, 256) // identical for every request on flash
	var elapsed time.Duration
	env.Go("load", func(pr *sim.Proc) {
		start := pr.Now()
		var reqs []*Request
		for i := 0; i < requests; i++ {
			// Scattered, non-contiguous sectors: merging is disabled and
			// positional cost does not exist, so all requests are equal.
			reqs = append(reqs, d.Submit(Read, int64(i)*100_000, 256))
		}
		for _, r := range reqs {
			d.Wait(pr, r)
		}
		elapsed = pr.Now() - start
	})
	env.Run(0)
	waves := (requests + channels - 1) / channels
	want := time.Duration(waves) * service
	if elapsed != want {
		t.Errorf("makespan = %v, want %d waves × %v = %v", elapsed, waves, service, want)
	}
	s := d.Stats()
	if s.ReadsCompleted != requests {
		t.Errorf("ReadsCompleted = %d, want %d", s.ReadsCompleted, requests)
	}
	if s.IOTicks != elapsed {
		t.Errorf("IOTicks = %v, want the continuously-busy makespan %v (overlapping channels must not double-count)", s.IOTicks, elapsed)
	}
	if s.SectorsRead != requests*256 {
		t.Errorf("SectorsRead = %d, want %d", s.SectorsRead, requests*256)
	}
}

// Fail-slow injection lives outside the device model, so SetSlowFactor
// degrades flash exactly as it degrades spindles.
func TestFailSlowAppliesToSSD(t *testing.T) {
	env := sim.New(1)
	d := New(env, newTestSSD())
	healthy := d.serviceFor(Read, 0, 256)
	d.SetSlowFactor(8)
	if got := d.serviceFor(Read, 0, 256); got != time.Duration(float64(healthy)*8) {
		t.Errorf("slow service = %v, want 8 × %v", got, healthy)
	}
	d.SetSlowFactor(1)
	if got := d.serviceFor(Read, 0, 256); got != healthy {
		t.Errorf("restored service = %v, want %v", got, healthy)
	}
}

// The default flash drive must be flash, with multiple channels and a FIFO
// scheduler (elevator sweeps buy nothing without a head).
func TestDataCenterSSDDefaults(t *testing.T) {
	p := DataCenterSSD()
	if !p.Flash {
		t.Fatal("DataCenterSSD must carry a flash model")
	}
	if p.Scheduler != SchedFIFO {
		t.Errorf("Scheduler = %v, want FIFO", p.Scheduler)
	}
	if d := New(sim.New(1), p); d.model.Channels() < 2 {
		t.Errorf("model.Channels() = %d, want parallelism", d.model.Channels())
	}
}
