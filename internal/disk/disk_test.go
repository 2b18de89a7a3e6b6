package disk

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iochar/internal/sim"
)

func newTestDisk(env *sim.Env) *Disk {
	p := SeagateST1000NM0011()
	p.Sectors = 1 << 24 // small disk keeps seek distances meaningful in tests
	return New(env, p)
}

func TestSequentialReadPaysTransferOnly(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	var elapsed time.Duration
	env.Go("r", func(p *sim.Proc) {
		d.Do(p, Read, 0, 256) // head starts at 0: contiguous
		start := p.Now()
		d.Do(p, Read, 256, 256) // still contiguous
		elapsed = p.Now() - start
	})
	env.Run(0)
	want := d.serviceFor(Read, d.headPos, 256) // pure transfer, head already there
	_ = want
	transfer := time.Duration(float64(256*SectorSize) / float64(d.P.TransferBC) * 1e9)
	if elapsed != transfer {
		t.Errorf("sequential read took %v, want pure transfer %v", elapsed, transfer)
	}
}

func TestRandomReadPaysSeekAndRotation(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	var randTime, seqTime time.Duration
	env.Go("r", func(p *sim.Proc) {
		d.Do(p, Read, 0, 8)
		s := p.Now()
		d.Do(p, Read, 8, 8) // sequential
		seqTime = p.Now() - s
		s = p.Now()
		d.Do(p, Read, 1<<23, 8) // far away
		randTime = p.Now() - s
	})
	env.Run(0)
	avgRot := time.Duration(60e9/float64(d.P.RPM)) / 2
	if randTime < seqTime+avgRot {
		t.Errorf("random access %v should exceed sequential %v by at least rotation %v", randTime, seqTime, avgRot)
	}
}

func TestSeekCurveMonotoneInDistance(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	prev := time.Duration(0)
	for _, dist := range []int64{1, 100, 10_000, 1_000_000, 8_000_000} {
		d.headPos = 0
		st := d.serviceFor(Read, dist, 1)
		if st < prev {
			t.Errorf("service time decreased with distance %d: %v < %v", dist, st, prev)
		}
		prev = st
	}
}

func TestStatsConservation(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	env.Go("w", func(p *sim.Proc) {
		d.Do(p, Write, 0, 100)
		d.Do(p, Read, 1000, 50)
		d.Do(p, Write, 5000, 25)
	})
	env.Run(0)
	s := d.Stats()
	if s.SectorsWritten != 125 {
		t.Errorf("SectorsWritten = %d, want 125", s.SectorsWritten)
	}
	if s.SectorsRead != 50 {
		t.Errorf("SectorsRead = %d, want 50", s.SectorsRead)
	}
	if s.ReadsCompleted != 1 || s.WritesCompleted != 2 {
		t.Errorf("completions = %d/%d, want 1/2", s.ReadsCompleted, s.WritesCompleted)
	}
	if s.IOTicks <= 0 {
		t.Error("IOTicks should be positive after activity")
	}
	if s.TimeReading <= 0 || s.TimeWriting <= 0 {
		t.Error("residence times should be positive")
	}
}

func TestBackMergeCombinesContiguousRequests(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	// Occupy the device so subsequent submissions queue and can merge.
	env.Go("blocker", func(p *sim.Proc) { d.Do(p, Read, 1<<20, 1024) })
	env.Go("stream", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs, d.Submit(Write, int64(i*128), 128))
		}
		for _, r := range reqs {
			d.Wait(p, r)
		}
	})
	env.Run(0)
	s := d.Stats()
	if s.WritesMerged != 3 {
		t.Errorf("WritesMerged = %d, want 3", s.WritesMerged)
	}
	if s.WritesCompleted != 1 {
		t.Errorf("WritesCompleted = %d, want 1 (single merged request)", s.WritesCompleted)
	}
	if s.SectorsWritten != 512 {
		t.Errorf("SectorsWritten = %d, want 512", s.SectorsWritten)
	}
}

func TestFrontMerge(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	env.Go("blocker", func(p *sim.Proc) { d.Do(p, Read, 1<<20, 1024) })
	env.Go("s", func(p *sim.Proc) {
		r1 := d.Submit(Write, 512, 128)
		r2 := d.Submit(Write, 384, 128) // immediately before r1
		d.Wait(p, r1)
		d.Wait(p, r2)
	})
	env.Run(0)
	if got := d.Stats().WritesMerged; got != 1 {
		t.Errorf("WritesMerged = %d, want 1", got)
	}
}

// A request is one object, its completion event inside it, and a request
// that merges into a queued one allocates nothing.
func TestSubmitAllocations(t *testing.T) {
	env := sim.New(1)
	defer env.Close()
	d := newTestDisk(env)
	sector := int64(0)
	alone := testing.AllocsPerRun(100, func() {
		sector += 1 << 16
		d.Submit(Read, sector, 8)
		env.Run(0)
	})
	withMerges := testing.AllocsPerRun(100, func() {
		sector += 1 << 16
		for i := int64(0); i < 4; i++ {
			d.Submit(Write, sector+8*i, 8)
		}
		env.Run(0)
	})
	if alone != 1 || withMerges != 1 {
		t.Errorf("Submit allocates %v objects for a request alone and %v for one that three more merge into, want 1 and 1", alone, withMerges)
	}
	if s := d.Stats(); s.WritesCompleted != 101 || s.WritesMerged != 303 || d.InFlight() != 0 {
		t.Errorf("%d writes completed, %d merged, %d in flight; want 101, 303, 0", s.WritesCompleted, s.WritesMerged, d.InFlight())
	}
}

func TestMergeRespectsMaxRequestSize(t *testing.T) {
	env := sim.New(1)
	p := SeagateST1000NM0011()
	p.Sectors = 1 << 24
	d := New(env, p)
	env.Go("blocker", func(pr *sim.Proc) { d.Do(pr, Read, 1<<20, 256) })
	env.Go("s", func(pr *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 16; i++ { // 16 x 128 sectors; ceiling allows only 8 per request
			reqs = append(reqs, d.Submit(Write, int64(i*128), 128))
		}
		for _, r := range reqs {
			d.Wait(pr, r)
		}
	})
	env.Run(0)
	s := d.Stats()
	if s.WritesCompleted != 2 {
		t.Errorf("WritesCompleted = %d, want 2 (%d-sector ceiling)", s.WritesCompleted, MaxReqSectors)
	}
}

func TestNoMergeAblation(t *testing.T) {
	env := sim.New(1)
	p := SeagateST1000NM0011()
	p.Sectors = 1 << 24
	p.NoMerge = true
	d := New(env, p)
	env.Go("blocker", func(pr *sim.Proc) { d.Do(pr, Read, 1<<20, 1024) })
	env.Go("s", func(pr *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 4; i++ {
			reqs = append(reqs, d.Submit(Write, int64(i*128), 128))
		}
		for _, r := range reqs {
			d.Wait(pr, r)
		}
	})
	env.Run(0)
	s := d.Stats()
	if s.WritesMerged != 0 {
		t.Errorf("WritesMerged = %d, want 0 with NoMerge", s.WritesMerged)
	}
	if s.WritesCompleted != 4 {
		t.Errorf("WritesCompleted = %d, want 4", s.WritesCompleted)
	}
}

func TestLOOKOrdersByPosition(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	var completions []int64
	// Saturate the queue while the device is busy with a far request. The
	// microsecond delay ensures the blocker is already in service when the
	// probes queue, so LOOK ordering starts from the blocker's position.
	env.Go("blocker", func(p *sim.Proc) { d.Do(p, Read, 1<<22, 8) })
	for _, sect := range []int64{9 << 20, 1 << 20, 5 << 20} {
		sect := sect
		env.Go("r", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			r := d.Submit(Read, sect, 8)
			d.Wait(p, r)
			completions = append(completions, sect)
		})
	}
	env.Run(0)
	if len(completions) != 3 {
		t.Fatalf("got %d completions, want 3", len(completions))
	}
	// Head ends at 1<<22+8 ascending; nearest-in-direction first: 5<<20, 9<<20, then reverse to 1<<20.
	want := []int64{5 << 20, 9 << 20, 1 << 20}
	for i := range want {
		if completions[i] != want[i] {
			t.Errorf("completion[%d] = %d, want %d (LOOK order)", i, completions[i], want[i])
		}
	}
}

func TestFIFOSchedulerOrder(t *testing.T) {
	env := sim.New(1)
	p := SeagateST1000NM0011()
	p.Sectors = 1 << 24
	p.Scheduler = SchedFIFO
	p.NoMerge = true
	d := New(env, p)
	var completions []int64
	env.Go("blocker", func(pr *sim.Proc) { d.Do(pr, Read, 1<<22, 8) })
	for _, sect := range []int64{9 << 20, 1 << 20, 5 << 20} {
		sect := sect
		env.Go("r", func(pr *sim.Proc) {
			r := d.Submit(Read, sect, 8)
			d.Wait(pr, r)
			completions = append(completions, sect)
		})
	}
	env.Run(0)
	want := []int64{9 << 20, 1 << 20, 5 << 20}
	for i := range want {
		if completions[i] != want[i] {
			t.Errorf("completion[%d] = %d, want %d (FIFO order)", i, completions[i], want[i])
		}
	}
}

func TestUtilizationBusyVsIdle(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	env.Go("r", func(p *sim.Proc) {
		d.Do(p, Read, 0, 1024)
		p.Sleep(time.Second) // idle period
	})
	env.Run(0)
	s := d.Stats()
	if s.IOTicks >= time.Second {
		t.Errorf("IOTicks = %v, should be far below the 1s idle tail", s.IOTicks)
	}
	if s.IOTicks <= 0 {
		t.Error("IOTicks should be positive")
	}
}

func TestAwaitIncludesQueueing(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	// Two far-apart requests: the second queues behind the first.
	env.Go("a", func(p *sim.Proc) { d.Do(p, Read, 1<<22, 8) })
	env.Go("b", func(p *sim.Proc) { d.Do(p, Read, 1<<10, 8) })
	env.Run(0)
	s := d.Stats()
	// Total residence must exceed pure busy time because of queueing overlap.
	if s.TimeReading <= s.IOTicks {
		t.Errorf("total residence %v should exceed busy time %v when requests queue", s.TimeReading, s.IOTicks)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	// The last case overflows sector+count: it used to pass the bounds check
	// and be "served" with a seek across the whole platter.
	for _, sector := range []int64{1<<24 - 1, math.MaxInt64 - 1} {
		env := sim.New(1)
		d := newTestDisk(env)
		env.Go("r", func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for out-of-bounds request [%d,+2)", sector)
				}
			}()
			d.Submit(Read, sector, 2)
		})
		env.Run(0)
	}
}

// The clamp must be loud: past the floor every disk scales to the same
// MinSectors, which voids any experiment that depends on heterogeneous
// capacities, so Scaled reports it and the caller warns or refuses.
func TestScaledParamsClampAndShrink(t *testing.T) {
	p := SeagateST1000NM0011()
	s, clamped := p.Scaled(1024)
	if s.Sectors != p.Sectors/1024 || clamped {
		t.Errorf("Scaled(1024) = %d sectors, clamped %v; want %d, false", s.Sectors, clamped, p.Sectors/1024)
	}
	if s.TransferBC != p.TransferBC {
		t.Error("scaling must not change timing parameters")
	}
	edge := p
	edge.Sectors = 8 * MinSectors
	if s, clamped := edge.Scaled(8); s.Sectors != MinSectors || clamped {
		t.Errorf("scaling exactly to the floor = %d sectors, clamped %v; want %d, false", s.Sectors, clamped, MinSectors)
	}
	for _, factor := range []int64{1 << 20, 1 << 40} {
		if tiny, clamped := p.Scaled(factor); tiny.Sectors != MinSectors || !clamped {
			t.Errorf("Scaled(%d) = %d sectors, clamped %v; want the %d floor, true", factor, tiny.Sectors, clamped, MinSectors)
		}
	}
	if same, clamped := p.Scaled(1); same != p || clamped {
		t.Errorf("Scaled(1) = %+v, clamped %v; want the parameters unchanged", same, clamped)
	}
}

// Property: for any batch of in-bounds requests, sectors in == sectors out
// and all requests complete (no lost wakeups), regardless of interleaving.
func TestQuickSectorConservation(t *testing.T) {
	f := func(seed int64, raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		env := sim.New(seed)
		d := newTestDisk(env)
		var wantR, wantW uint64
		for i, rv := range raw {
			sect := int64(rv) % (d.P.Sectors - 2048)
			count := int(rv%512) + 1
			op := Read
			if i%2 == 1 {
				op = Write
			}
			if op == Read {
				wantR += uint64(count)
			} else {
				wantW += uint64(count)
			}
			delay := time.Duration(rv%1000) * time.Microsecond
			env.Go("u", func(p *sim.Proc) {
				p.Sleep(delay)
				d.Do(p, op, sect, count)
			})
		}
		env.Run(0)
		s := d.Stats()
		if s.SectorsRead != wantR || s.SectorsWritten != wantW {
			t.Logf("sectors: got %d/%d want %d/%d", s.SectorsRead, s.SectorsWritten, wantR, wantW)
			return false
		}
		return d.InFlight() == 0 && len(d.queue) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: avg service time over random single-sector accesses approximates
// seek + rotation (the datasheet promise the model was calibrated to).
func TestRandomAccessAverageNearDatasheet(t *testing.T) {
	env := sim.New(7)
	p := SeagateST1000NM0011()
	d := New(env, p)
	const n = 2000
	var total time.Duration
	env.Go("r", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			sect := int64(env.Rand().Int63n(p.Sectors - 8))
			st := d.serviceFor(Read, sect, 1)
			d.headPos = sect + 1
			total += st
		}
	})
	env.Run(0)
	avg := total / n
	// 8.5ms seek + 4.17ms rotation ± 20%.
	lo, hi := 10*time.Millisecond, 16*time.Millisecond
	if avg < lo || avg > hi {
		t.Errorf("avg random access %v, want within [%v, %v]", avg, lo, hi)
	}
}

func TestSlowFactorDegradesService(t *testing.T) {
	env := sim.New(1)
	healthy := New(env, SeagateST1000NM0011())
	pSlow := SeagateST1000NM0011()
	pSlow.Name = "degraded"
	pSlow.SlowFactor = 4
	slow := New(env, pSlow)
	h := healthy.serviceFor(Read, 1<<20, 256)
	s := slow.serviceFor(Read, 1<<20, 256)
	if s != 4*h {
		t.Errorf("degraded service %v, want 4x healthy %v", s, h)
	}
}

// Failure injection end-to-end: a degraded disk in a striped group must
// dominate completion time and show the elevated await signature that an
// operator would diagnose with iostat.
func TestDegradedDiskSlowsGroupAndShowsInAwait(t *testing.T) {
	run := func(slowFactor float64) (time.Duration, time.Duration) {
		env := sim.New(1)
		var disks []*Disk
		for i := 0; i < 3; i++ {
			p := SeagateST1000NM0011()
			p.Sectors = 1 << 24
			p.Name = fmt.Sprintf("d%d", i)
			if i == 0 {
				p.SlowFactor = slowFactor
			}
			disks = append(disks, New(env, p))
		}
		// Stripe writes round-robin, as the MR volume rotation does.
		env.Go("w", func(pr *sim.Proc) {
			for i := 0; i < 60; i++ {
				disks[i%3].Do(pr, Write, int64(i)*4096, 256)
			}
		})
		end, _ := env.Run(0)
		st := disks[0].Stats()
		var await time.Duration
		if st.WritesCompleted > 0 {
			await = st.TimeWriting / time.Duration(st.WritesCompleted)
		}
		return end, await
	}
	healthyEnd, healthyAwait := run(1)
	degradedEnd, degradedAwait := run(8)
	if degradedEnd <= healthyEnd*2 {
		t.Errorf("degraded group finished at %v, healthy %v; fault not visible", degradedEnd, healthyEnd)
	}
	if degradedAwait <= healthyAwait*3 {
		t.Errorf("degraded await %v vs healthy %v; iostat signature missing", degradedAwait, healthyAwait)
	}
}

func TestSubscribeFansOutToAllObservers(t *testing.T) {
	env := sim.New(1)
	d := newTestDisk(env)
	var a, b []Completion
	d.Subscribe(func(c Completion) { a = append(a, c) })
	d.Subscribe(func(c Completion) { b = append(b, c) })
	env.Go("io", func(p *sim.Proc) {
		d.Do(p, Read, 0, 64)
		d.Do(p, Write, 1<<20, 128)
		d.Do(p, Read, 1<<21, 8)
		d.Do(p, Write, 1<<22, 16)
	})
	env.Run(0)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("observers saw %d and %d completions, want 4 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("completion %d differs between observers: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, c := range b {
		if c.Done <= c.Arrived || c.Done < c.Start || c.Start < c.Arrived {
			t.Errorf("completion %d has inconsistent timestamps: %+v", i, c)
		}
	}
	if b[3].Op != Write || b[3].Count != 16 {
		t.Errorf("last completion = %+v, want the 16-sector write", b[3])
	}
}

// pinnedDiskScenario drives a LOOK drive, a FIFO drive and an 8-channel SSD
// through one program and logs, in firing order, every completion an
// observer sees and every waiter's wakeup as (virtual time, event index,
// what happened), then each device's final counters. The LOOK drive sees
// back and front merges behind a request in service and a SetSlowFactor
// while that request is in service; the FIFO drive goes idle and is woken
// again; the SSD is first given fewer requests than it has idle channels, so
// the channels a Submit wakes for nothing go back to waiting, and one of its
// observers notes only the first two completions it sees.
func pinnedDiskScenario() string {
	env := sim.New(1)
	defer env.Close()
	var b strings.Builder
	note := func(format string, args ...any) {
		fmt.Fprintf(&b, "%v #%d ", env.Now(), env.Events())
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	look := newTestDisk(env)
	fp := SeagateST1000NM0011()
	fp.Name, fp.Sectors, fp.Scheduler = "fifo", 1<<24, SchedFIFO
	fifo := New(env, fp)
	ssd := New(env, DataCenterSSD())
	disks := []*Disk{look, fifo, ssd}
	for _, d := range disks {
		name := d.P.Name
		d.Subscribe(func(c Completion) {
			note("%s done %s %d+%d %s arrived=%v start=%v", name, c.Op, c.Sector, c.Count, c.Stage, c.Arrived, c.Start)
		})
	}
	seen := 0
	ssd.Subscribe(func(c Completion) {
		if seen++; seen <= 2 {
			note("ssd leaver sees %d+%d", c.Sector, c.Count)
		}
	})
	waitAll := func(p *sim.Proc, who string, d *Disk, reqs ...*Request) {
		for i, r := range reqs {
			d.Wait(p, r)
			note("%s woke on request %d", who, i)
		}
	}

	env.Go("look-blocker", func(p *sim.Proc) {
		waitAll(p, "look-blocker", look, look.Submit(Read, 1<<22, 8))
	})
	env.Go("look-merger", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		waitAll(p, "look-merger", look,
			look.SubmitStaged(Write, 512, 128, StageSpill),
			look.SubmitStaged(Write, 640, 128, StageHDFS),  // back merge
			look.SubmitStaged(Write, 384, 128, StageMerge), // front merge
			look.Submit(Read, 9<<20, 8),
			look.Submit(Read, 1<<20, 8))
		p.Sleep(10 * time.Millisecond)
		waitAll(p, "look-merger", look, look.Submit(Read, 1<<23, 8))
	})
	env.Go("look-slow", func(p *sim.Proc) {
		p.Sleep(2 * time.Microsecond) // the blocker is in service
		look.SetSlowFactor(3)
		p.Sleep(40 * time.Millisecond)
		look.SetSlowFactor(1)
	})

	for i, sect := range []int64{9 << 20, 1 << 20, 5 << 20} {
		who := fmt.Sprintf("fifo-%d", i)
		env.Go(who, func(p *sim.Proc) { waitAll(p, who, fifo, fifo.Submit(Read, sect, 8)) })
	}
	env.Go("fifo-late", func(p *sim.Proc) {
		p.Sleep(200 * time.Millisecond)
		waitAll(p, "fifo-late", fifo, fifo.Submit(Write, 100, 8), fifo.Submit(Write, 108, 8))
	})

	env.Go("ssd-few", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		waitAll(p, "ssd-few", ssd,
			ssd.Submit(Read, 0, 8), ssd.Submit(Write, 1000, 64), ssd.Submit(Read, 5000, 16))
	})
	env.Go("ssd-many", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		var reqs []*Request
		for i := 0; i < 12; i++ {
			reqs = append(reqs, ssd.Submit(Op(i%2), int64(i)*4096, 8+8*(i%3)))
		}
		waitAll(p, "ssd-many", ssd, reqs...)
	})

	if _, err := env.Run(0); err != nil {
		note("run: %v", err)
	}
	for _, d := range disks {
		note("%s stats %+v", d.P.Name, d.Stats())
	}
	return b.String()
}

// TestPinnedDiskEventOrder compares pinnedDiskScenario's log with the one
// recorded when each disk channel was a process. Regenerate deliberately with
// IOCHAR_UPDATE_GOLDEN=1.
func TestPinnedDiskEventOrder(t *testing.T) {
	const path = "testdata/event_order.txt"
	got := pinnedDiskScenario()
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("disk event order diverged from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
