package pagecache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

func rig(capPages int, opts Options) (*sim.Env, *disk.Disk, *Cache) {
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	d := disk.New(env, p)
	return env, d, New(env, d, capPages, opts)
}

func TestColdReadMissesThenHits(t *testing.T) {
	env, d, c := rig(1024, DefaultOptions())
	env.Go("r", func(p *sim.Proc) {
		c.Read(p, nil, 0, 64, disk.StageNone) // 8 pages, cold
		before := d.Stats().ReadsCompleted
		c.Read(p, nil, 0, 64, disk.StageNone) // warm
		if got := d.Stats().ReadsCompleted; got != before {
			t.Errorf("warm read issued %d extra disk reads", got-before)
		}
	})
	env.Run(0)
	s := c.Stats()
	if s.Misses != 8 {
		t.Errorf("Misses = %d, want 8", s.Misses)
	}
	if s.Hits != 8 {
		t.Errorf("Hits = %d, want 8", s.Hits)
	}
}

// A miss allocates its fill record, the callback bound to it and the disk
// request, and nothing per page once the cache is full (evicted page structs
// are recycled): at most three objects for a cold one-page Read.
func TestColdReadAllocationsPerMiss(t *testing.T) {
	env, _, c := rig(8, DefaultOptions())
	defer env.Close()
	var perRead float64
	env.Go("r", func(p *sim.Proc) {
		page := int64(0)
		read := func() {
			c.Read(p, nil, page*PageSectors, PageSectors, disk.StageNone)
			page++
		}
		for page < 8 {
			read()
		}
		perRead = testing.AllocsPerRun(100, read)
	})
	if _, err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	t.Logf("%v objects allocated per one-page Read", perRead)
	if s := c.Stats(); perRead > 3 || s.Misses != 109 || s.Hits != 0 {
		t.Errorf("%v objects allocated per one-page Read over %d misses and %d hits, want ≤ 3 over 109 misses", perRead, s.Misses, s.Hits)
	}
}

func TestWriteIsCacheOnlyUntilSync(t *testing.T) {
	env, d, c := rig(4096, DefaultOptions())
	env.Go("w", func(p *sim.Proc) {
		start := p.Now()
		c.Write(p, 0, 512, disk.StageNone) // 64 pages, well under thresholds
		if p.Now() != start {
			t.Error("small write should not block in virtual time")
		}
		if d.Stats().WritesCompleted != 0 {
			t.Error("write reached disk before sync")
		}
		c.Sync(p)
		if d.Stats().SectorsWritten != 512 {
			t.Errorf("SectorsWritten = %d, want 512 after sync", d.Stats().SectorsWritten)
		}
	})
	env.Run(0)
	if c.DirtyPages() != 0 {
		t.Errorf("DirtyPages = %d after sync, want 0", c.DirtyPages())
	}
}

// A page one process reads and another dirties before the read's fill lands
// cannot be written until the fill does. Sync must wait for the fill and
// write the page, not return with it dirty and leave it to expire 30 s later.
func TestSyncWaitsForFillsInFlight(t *testing.T) {
	env, d, c := rig(1024, DefaultOptions())
	defer env.Close()
	env.Go("reader", func(p *sim.Proc) { c.Read(p, nil, 0, PageSectors, disk.StageHDFS) })
	env.Go("writer", func(p *sim.Proc) {
		c.Write(p, 0, PageSectors, disk.StageSpill)
		c.Sync(p)
		if w := d.Stats().SectorsWritten; c.DirtyPages() != 0 || w != PageSectors || p.Now() >= time.Second {
			t.Errorf("Sync returned at %v with %d dirty pages and %d sectors written, want 0 and %d before the flusher's first wake", p.Now(), c.DirtyPages(), w, PageSectors)
		}
	})
	if _, err := env.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSyncClustersContiguousDirtyPages(t *testing.T) {
	env, d, c := rig(4096, DefaultOptions())
	env.Go("w", func(p *sim.Proc) {
		// Dirty 64 contiguous pages out of order: sync must cluster them.
		for i := 63; i >= 0; i-- {
			c.Write(p, int64(i*PageSectors), PageSectors, disk.StageNone)
		}
		c.Sync(p)
	})
	env.Run(0)
	s := d.Stats()
	if s.WritesCompleted > 2 {
		t.Errorf("sync issued %d writes for one contiguous run, want 1 (or 2 with merge accounting)", s.WritesCompleted)
	}
	if s.SectorsWritten != 64*PageSectors {
		t.Errorf("SectorsWritten = %d, want %d", s.SectorsWritten, 64*PageSectors)
	}
}

func TestDiscardDropsDirtyWithoutIO(t *testing.T) {
	env, d, c := rig(4096, DefaultOptions())
	env.Go("w", func(p *sim.Proc) {
		c.Write(p, 0, 256, disk.StageNone)
		c.Discard(0, 256)
		c.Sync(p)
	})
	env.Run(0)
	if w := d.Stats().SectorsWritten; w != 0 {
		t.Errorf("discarded data still wrote %d sectors", w)
	}
	if got := c.Stats().DiscardedDirty; got != 32 {
		t.Errorf("DiscardedDirty = %d, want 32", got)
	}
}

func TestDirtyThrottleTriggersInlineWriteback(t *testing.T) {
	opts := DefaultOptions()
	env, d, c := rig(256, opts) // tiny cache: hard limit ~102 pages
	env.Go("w", func(p *sim.Proc) {
		c.Write(p, 0, 150*PageSectors, disk.StageNone) // 150 dirty pages > 40% of 256
	})
	env.Run(0)
	if c.Stats().ThrottleStalls == 0 {
		t.Error("expected a throttle stall")
	}
	if d.Stats().SectorsWritten == 0 {
		t.Error("inline writeback should have reached the disk")
	}
	if float64(c.DirtyPages()) > 0.41*256 {
		t.Errorf("DirtyPages = %d, still above hard limit", c.DirtyPages())
	}
}

func TestLRUEvictionPrefersClean(t *testing.T) {
	env, _, c := rig(64, DefaultOptions())
	env.Go("w", func(p *sim.Proc) {
		c.Read(p, nil, 0, 32*PageSectors, disk.StageNone)     // 32 clean pages
		c.Write(p, 1<<20, 16*PageSectors, disk.StageNone)     // 16 dirty pages elsewhere
		c.Read(p, nil, 1<<21, 30*PageSectors, disk.StageNone) // push past capacity; clean supply suffices
	})
	env.Run(0)
	s := c.Stats()
	if s.EvictedClean == 0 {
		t.Error("expected clean evictions")
	}
	if s.EvictedDirty != 0 {
		t.Errorf("EvictedDirty = %d; clean pages were available", s.EvictedDirty)
	}
	if c.ResidentPages() > c.capacity {
		t.Errorf("resident %d exceeds capacity %d", c.ResidentPages(), c.capacity)
	}
}

func TestMemoryPressureFlushesDirty(t *testing.T) {
	opts := DefaultOptions()
	opts.DirtyHardRatio = 0.95 // keep throttling out of the way
	opts.DirtyBGRatio = 0.90
	env, d, c := rig(64, opts)
	env.Go("w", func(p *sim.Proc) {
		c.Write(p, 0, 50*PageSectors, disk.StageNone)         // 50 dirty pages
		c.Read(p, nil, 1<<20, 40*PageSectors, disk.StageNone) // needs 40 more: pressure
	})
	env.Run(0)
	if c.Stats().EvictedDirty == 0 {
		t.Error("expected dirty pages flushed under memory pressure")
	}
	if d.Stats().SectorsWritten == 0 {
		t.Error("pressure flush should reach the disk")
	}
}

func TestReadaheadGrowsForSequentialStream(t *testing.T) {
	env, d, c := rig(4096, DefaultOptions())
	env.Go("r", func(p *sim.Proc) {
		rs := &ReadState{}
		for i := 0; i < 32; i++ {
			c.Read(p, rs, int64(i*4*PageSectors), 4*PageSectors, disk.StageNone)
		}
	})
	env.Run(0)
	s := c.Stats()
	if s.ReadaheadPages == 0 {
		t.Fatal("sequential stream produced no readahead")
	}
	// Readahead must convert most accesses into hits.
	if s.Hits < s.Misses {
		t.Errorf("hits %d < misses %d; readahead ineffective", s.Hits, s.Misses)
	}
	// Few large reads, not many tiny ones: fewer disk reads than accesses.
	if got := d.Stats().ReadsCompleted; got >= 32 {
		t.Errorf("disk reads = %d, want far fewer than 32 accesses", got)
	}
}

func TestReadaheadResetsOnSeek(t *testing.T) {
	env, _, c := rig(4096, DefaultOptions())
	env.Go("r", func(p *sim.Proc) {
		rs := &ReadState{}
		c.Read(p, rs, 0, 4*PageSectors, disk.StageNone)
		c.Read(p, rs, 4*PageSectors, 4*PageSectors, disk.StageNone)
		grown := rs.window
		c.Read(p, rs, 1<<20, 4*PageSectors, disk.StageNone) // seek
		if rs.window != 0 {
			t.Errorf("window = %d after seek, want 0 (was %d)", rs.window, grown)
		}
	})
	env.Run(0)
}

func TestNoReadaheadAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.NoReadahead = true
	env, _, c := rig(4096, opts)
	env.Go("r", func(p *sim.Proc) {
		rs := &ReadState{}
		for i := 0; i < 16; i++ {
			c.Read(p, rs, int64(i*4*PageSectors), 4*PageSectors, disk.StageNone)
		}
	})
	env.Run(0)
	if got := c.Stats().ReadaheadPages; got != 0 {
		t.Errorf("ReadaheadPages = %d with NoReadahead, want 0", got)
	}
}

func TestConcurrentReadersShareInFlightFetch(t *testing.T) {
	env, d, c := rig(4096, DefaultOptions())
	for i := 0; i < 4; i++ {
		env.Go("r", func(p *sim.Proc) {
			c.Read(p, nil, 0, 64, disk.StageNone)
		})
	}
	env.Run(0)
	// All four readers need the same 8 pages; only one fetch should happen.
	if got := d.Stats().SectorsRead; got != 64 {
		t.Errorf("SectorsRead = %d, want 64 (single shared fetch)", got)
	}
}

// With a non-positive WritebackInterval the flusher would wake at the
// instant it went to sleep, forever, and the clock would never move while a
// page is dirty: New refuses it before anything runs.
func TestNewRefusesNonPositiveWritebackInterval(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Second} {
		env := sim.New(1)
		d := disk.New(env, disk.SeagateST1000NM0011())
		opts := DefaultOptions()
		opts.WritebackInterval = interval
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WritebackInterval %v was accepted", interval)
				}
			}()
			New(env, d, 64, opts)
		}()
		env.Close()
	}
}

func TestSimulationDrainsWithIdleDaemon(t *testing.T) {
	env, _, c := rig(1024, DefaultOptions())
	env.Go("w", func(p *sim.Proc) {
		c.Write(p, 0, 64, disk.StageNone)
		c.Sync(p)
	})
	end, _ := env.Run(0)
	if end > time.Hour {
		t.Errorf("simulation failed to drain: ended at %v", end)
	}
}

// Property: whatever mix of writes, reads, discards and crash drops ran, Sync
// leaves no page dirty and every flushed page reached the disk exactly once:
// sectors written = pages flushed × PageSectors, whether throttling, eviction,
// the background flusher or Sync wrote them. The cache is small, so all four
// do.
func TestQuickWriteSyncConservation(t *testing.T) {
	var seen Stats // summed over the cases, to show every path ran
	f := func(ops []uint32) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		env := sim.New(3)
		defer env.Close()
		p := disk.SeagateST1000NM0011()
		p.Sectors = 1 << 24
		d := disk.New(env, p)
		opts := DefaultOptions()
		opts.DirtyHardRatio = 0.9 // lets dirty pages crowd out clean ones before writers stall
		c := New(env, d, 64, opts)
		dirtyAfterSync := -1
		env.Go("w", func(pr *sim.Proc) {
			for _, op := range ops {
				sector := int64(op>>8) % (1 << 20)
				n := int(op%256) + 1
				switch op >> 29 {
				case 0, 1, 2, 3:
					c.Write(pr, sector, n, disk.StageNone)
				case 4, 5:
					c.Read(pr, nil, sector, n, disk.StageNone)
				case 6:
					c.Discard(sector, n)
				case 7:
					c.DropAll()
				}
			}
			c.Sync(pr)
			dirtyAfterSync = c.DirtyPages()
		})
		if _, err := env.Run(0); err != nil {
			return false
		}
		s := c.Stats()
		seen.EvictedDirty += s.EvictedDirty
		seen.ThrottleStalls += s.ThrottleStalls
		seen.DiscardedDirty += s.DiscardedDirty
		seen.Misses += s.Misses
		return dirtyAfterSync == 0 && d.Stats().SectorsWritten == s.FlushedPages*PageSectors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if seen.EvictedDirty == 0 || seen.ThrottleStalls == 0 || seen.DiscardedDirty == 0 || seen.Misses == 0 {
		t.Errorf("a path never ran: %+v", seen)
	}
}

// Property: reads never lose pages — after reading a range it is resident
// (unless capacity forced eviction, so use a large cache).
func TestQuickReadResidency(t *testing.T) {
	f := func(ops []uint32) bool {
		if len(ops) > 20 {
			ops = ops[:20]
		}
		env := sim.New(5)
		p := disk.SeagateST1000NM0011()
		p.Sectors = 1 << 24
		d := disk.New(env, p)
		c := New(env, d, 1<<16, DefaultOptions())
		ok := true
		env.Go("r", func(pr *sim.Proc) {
			for _, op := range ops {
				sector := int64(op % (1 << 20))
				n := int(op%128) + 1
				c.Read(pr, nil, sector, n, disk.StageNone)
				first, last := pageRange(sector, n)
				for pg := first; pg < last; pg++ {
					if pgp := c.pages.get(pg); pgp == nil || pgp.pending != nil {
						ok = false
					}
				}
			}
		})
		env.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// pinnedScenario drives the cache through the fill path's awkward cases —
// four readers sharing one in-flight fetch, a fifth whose fetch merges into
// the same disk request, a readahead stream across a chunk edge, DropAll
// while fills are pending, an out-of-order Sync and an expiry flush — and
// logs every observable step with its virtual time and env.Events() at that
// moment, the index of the event that ran it.
func pinnedScenario() (log []string, events uint64) {
	env, d, c := rig(4096, DefaultOptions())
	defer env.Close()
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v #%d ", env.Now(), env.Events())+fmt.Sprintf(format, args...))
	}
	d.Subscribe(func(cp disk.Completion) { note("disk %v [%d,+%d)", cp.Op, cp.Sector, cp.Count) })
	for i := 0; i < 4; i++ {
		env.Go("shared", func(p *sim.Proc) {
			c.Read(p, nil, 0, 8*PageSectors, disk.StageHDFS)
			note("shared %d", i)
		})
	}
	env.Go("merged", func(p *sim.Proc) {
		c.Read(p, nil, 8*PageSectors, 8*PageSectors, disk.StageHDFS)
		note("merged")
	})
	env.Go("stream", func(p *sim.Proc) {
		rs := &ReadState{}
		for j := 0; j < 4; j++ {
			c.Read(p, rs, int64(510+4*j)*PageSectors, 4*PageSectors, disk.StageShuffle)
			note("stream %d", j)
		}
	})
	env.Go("dropper", func(p *sim.Proc) {
		c.Write(p, 1<<20, 16*PageSectors, disk.StageSpill)
		p.Sleep(100 * time.Microsecond)
		note("drop: resident %d dirty %d", c.ResidentPages(), c.DirtyPages())
		c.DropAll()
		note("dropped: resident %d dirty %d", c.ResidentPages(), c.DirtyPages())
		c.Read(p, nil, 0, 16*PageSectors, disk.StageHDFS)
		note("reread")
		c.Read(p, nil, 510*PageSectors, 4*PageSectors, disk.StageHDFS)
		note("reread stream")
		c.DropAll()
		c.Read(p, nil, 0, PageSectors, disk.StageHDFS)
		note("read after drop")
		for _, n := range []int64{1030, 1020, 1023, 1024, 1022, 1021, 1025, 7, 8191} {
			c.Write(p, n*PageSectors, PageSectors, disk.StageMerge)
		}
		note("first dirty %d", c.FirstDirtyInRange(1000*PageSectors, 40*PageSectors))
		c.Discard(1024*PageSectors, PageSectors)
		c.Sync(p)
		note("synced: dirty %d", c.DirtyPages())
		c.Write(p, 2040*PageSectors, 20*PageSectors, disk.StageSpill)
		c.Write(p, 3000*PageSectors, 3*PageSectors, disk.StageSpill)
		p.Sleep(40 * time.Second)
		note("expired: dirty %d", c.DirtyPages())
	})
	end, err := env.Run(0)
	note("end %v %v stats %+v disk %+v", end, err, c.Stats(), d.Stats())
	return log, env.Events()
}

// recordedScenario is pinnedScenario's log as the parent of PR 25 printed
// it, when every fill was a process of its own: callback fills must reproduce
// it step for step, event index for event index.
const recordedScenario = `100µs #15 drop: resident 36 dirty 16
100µs #15 dropped: resident 20 dirty 0
416.666µs #16 disk read [0,+128)
416.666µs #19 shared 0
416.666µs #20 shared 1
416.666µs #21 shared 2
416.666µs #22 shared 3
416.666µs #23 reread
416.666µs #24 merged
5.371672ms #25 disk read [4080,+32)
5.371672ms #27 stream 0
5.371672ms #28 reread stream
5.580005ms #33 disk read [4112,+64)
5.580005ms #36 stream 1
5.580005ms #36 stream 2
10.462034ms #38 disk read [0,+8)
10.462034ms #40 read after drop
10.462034ms #40 first dirty 8160
15.526173ms #41 disk read [4176,+64)
15.526173ms #43 stream 3
20.480432ms #44 disk write [8160,+32)
25.181425ms #45 disk write [8200,+8)
29.890704ms #46 disk write [8240,+8)
35.28458ms #47 disk write [65528,+8)
40.726966ms #48 disk write [56,+8)
40.726966ms #49 synced: dirty 0
31.005561031s #82 disk write [16320,+160)
31.010559878s #84 disk write [24000,+24)
40.040726966s #86 expired: dirty 0
40.040726966s #86 end 40.040726966s <nil> stats {Hits:52 Misses:25 ReadaheadPages:12 FlushedPages:31 EvictedClean:0 EvictedDirty:0 DiscardedDirty:17 ThrottleStalls:0} disk {ReadsCompleted:5 ReadsMerged:2 SectorsRead:296 TimeReading:21.033201ms WritesCompleted:7 WritesMerged:0 SectorsWritten:248 TimeWriting:115.374846ms IOTicks:51.286844ms WeightedTicks:137.033046ms}`

// TestPageTableMatchesMap runs the page table and two maps (resident pages,
// dirty page numbers) through the same random puts, gets, deletes, dirty and
// clean marks and ordered walks of both kinds, in alternating fill and drain
// phases so chunks fill, empty and are reused. Page numbers are drawn half
// uniformly and half from the edges: page 0, both sides of every chunk
// boundary, the device's last page, and the out-of-range neighbours
// dirtyRunAround asks about (−1 and one past the end). A dirty page leaves
// as Cache.remove makes it leave: marked clean, then deleted.
func TestPageTableMatchesMap(t *testing.T) {
	const npages = 3*chunkPages + 17 // the last chunk is partial
	edges := []int64{-1, 0, 1, npages - 1, npages}
	for b := int64(chunkPages); b < npages; b += chunkPages {
		edges = append(edges, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63n(npages+2) - 1
	}
	var tab pageTable
	model := map[int64]*page{}
	dirty := map[int64]bool{}
	in := [2]func(int64) bool{
		residentBits: func(k int64) bool { return model[k] != nil },
		dirtyBits:    func(k int64) bool { return dirty[k] },
	}
	// chunks checks every chunk's bitmaps against the maps, that a chunk is
	// allocated iff it holds a page, and that the spare a released chunk
	// became holds no page and no bit, so reusing it or its directory entry
	// brings back nothing stale.
	chunks := func(step int) {
		for i, ch := range tab.dir {
			var want [2][chunkPages / 64]uint64
			for set := range want {
				for s := int64(0); s < chunkPages; s++ {
					if in[set](int64(i)<<chunkShift | s) {
						want[set][s>>6] |= 1 << (s & 63)
					}
				}
			}
			held := 0
			for _, w := range want[residentBits] {
				held += bits.OnesCount64(w)
			}
			if (ch != nil) != (held > 0) || ch != nil && (ch.bits != want || ch.resident != held) {
				t.Fatalf("step %d: chunk %d (allocated %v) disagrees with the maps, which hold %d of its pages", step, i, ch != nil, held)
			}
		}
		if tab.spare != nil && *tab.spare != (chunk{}) {
			t.Fatalf("step %d: the spare chunk keeps a page or a bit", step)
		}
	}
	for step := 0; step < 40000; step++ {
		n := pick()
		fill := step/4000%2 == 0
		switch op := rng.Intn(10); {
		case op < 3 && (fill || op == 0) && n >= 0 && n < npages && model[n] == nil:
			pg := &page{num: n}
			tab.put(pg)
			model[n] = pg
		case op < 6 && model[n] != nil:
			if dirty[n] {
				tab.setClean(model[n])
				delete(dirty, n)
			}
			tab.del(n)
			delete(model, n)
		case op < 8 && model[n] != nil:
			if dirty[n] {
				tab.setClean(model[n])
				delete(dirty, n)
			} else {
				tab.setDirty(model[n], time.Duration(step))
				dirty[n] = true
			}
		case op == 9:
			lo, hi := pick(), pick()+1
			if rng.Intn(4) == 0 {
				lo, hi = math.MinInt64, math.MaxInt64
			}
			for set := range in {
				var got, want []int64
				for pg := tab.next(set, lo, hi); pg != nil; pg = tab.next(set, pg.num+1, hi) {
					got = append(got, pg.num)
				}
				for k := max(lo, -1); k < min(hi, npages+1); k++ {
					if in[set](k) {
						want = append(want, k)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: walk of bitmap %d over [%d,%d) visited %v, the map holds %v", step, set, lo, hi, got, want)
				}
			}
			chunks(step)
		}
		if got := tab.get(n); got != model[n] || got != nil && got.dirty != dirty[n] {
			t.Fatalf("step %d: get(%d) = %p, map holds %p (dirty %v)", step, n, got, model[n], dirty[n])
		}
		if tab.n != len(model) || tab.dirty != len(dirty) {
			t.Fatalf("step %d: table counts %d pages, %d dirty; the maps hold %d, %d", step, tab.n, tab.dirty, len(model), len(dirty))
		}
	}
	chunks(40000)
}

// The out-of-range neighbours of a dirty run at either end of the device are
// page −1 and one past the last page; both must read as absent, whether the
// device ends on a chunk boundary or inside a chunk.
func TestDirtyRunAroundStopsAtDeviceEnds(t *testing.T) {
	for _, npages := range []int64{2 * chunkPages, 2*chunkPages + 5} {
		env := sim.New(1)
		p := disk.SeagateST1000NM0011()
		p.Sectors = npages * PageSectors
		d := disk.New(env, p)
		c := New(env, d, 4096, DefaultOptions())
		env.Go("w", func(pr *sim.Proc) {
			c.Write(pr, 0, 4*PageSectors, disk.StageNone)
			c.Write(pr, (npages-3)*PageSectors, 3*PageSectors, disk.StageNone)
			if lo, hi := c.dirtyRunAround(0); lo != 0 || hi != 4 {
				t.Errorf("%d pages: run around page 0 = [%d,%d), want [0,4)", npages, lo, hi)
			}
			if lo, hi := c.dirtyRunAround(npages - 1); lo != npages-3 || hi != npages {
				t.Errorf("%d pages: run around the last page = [%d,%d), want [%d,%d)", npages, lo, hi, npages-3, npages)
			}
		})
		if _, err := env.Run(0); err != nil {
			t.Fatal(err)
		}
		env.Close()
	}
}

func TestPinnedScenarioEventOrder(t *testing.T) {
	log, events := pinnedScenario()
	if got := strings.Join(log, "\n"); got != recordedScenario || events != 86 {
		t.Errorf("scenario ran %d events (recorded 86):\n%s\nrecorded:\n%s", events, got, recordedScenario)
	}
}

// writebackScenario drives the background flusher, and the flushes that
// share its code, through their awkward cases, logging every observable step
// with its virtual time and env.Events() at that moment:
//   - at 1 s the flusher finds 40 dirty pages in four runs, above the
//     background ratio, while a read has parked the head above them, so LOOK
//     completes its requests in reverse submission order;
//   - a writer passes the hard ratio while those requests are in flight and
//     flushes for itself, which leaves the flusher a second round;
//   - a page is dirtied under an in-flight fill: Sync's first round skips
//     it and a later round writes it back;
//   - two processes Sync at once, the second dirtying pages under the
//     first's requests;
//   - a page is dirtied, discarded and another dirtied while the flusher
//     sleeps, so the last kick finds no waiter, and that page leaves by
//     expiry, at the wake of a background flush that leaves it behind and
//     takes a second round for pages dirtied under its first, fewer than
//     the background ratio; the next wake finds more than half the ratio
//     dirty, but not more than the ratio, and leaves them to expire.
func writebackScenario() string {
	env, d, c := rig(256, DefaultOptions())
	defer env.Close()
	var b strings.Builder
	note := func(format string, args ...any) {
		fmt.Fprintf(&b, "%v #%d ", env.Now(), env.Events())
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	d.Subscribe(func(cp disk.Completion) {
		note("disk %v [%d,+%d) %s dirty %d", cp.Op, cp.Sector, cp.Count, cp.Stage, c.DirtyPages())
	})
	write := func(p *sim.Proc, first, n int64, stage disk.Stage) {
		c.Write(p, first*PageSectors, int(n)*PageSectors, stage)
	}
	at := func(name string, d time.Duration, fn func(p *sim.Proc)) {
		env.Go(name, func(p *sim.Proc) {
			p.Sleep(d)
			fn(p)
		})
	}
	at("runs", 0, func(p *sim.Proc) {
		for _, first := range []int64{1000, 3000, 5000, 7000} {
			write(p, first, 10, disk.StageSpill)
		}
		note("runs: dirty %d", c.DirtyPages())
	})
	at("head", time.Second-100*time.Microsecond, func(p *sim.Proc) {
		c.Read(p, nil, 9000*PageSectors, PageSectors, disk.StageHDFS)
		note("head parked")
	})
	at("throttled", time.Second+time.Millisecond, func(p *sim.Proc) {
		write(p, 20000, 100, disk.StageMerge)
		note("throttled: dirty %d stalls %d", c.DirtyPages(), c.Stats().ThrottleStalls)
	})
	at("filler", 2500*time.Millisecond, func(p *sim.Proc) {
		c.Read(p, nil, 50000*PageSectors, PageSectors, disk.StageHDFS)
		note("filled: dirty %d", c.DirtyPages())
	})
	at("dirtier", 2500*time.Millisecond+time.Microsecond, func(p *sim.Proc) {
		write(p, 50000, 1, disk.StageSpill)
		write(p, 60000, 10, disk.StageSpill)
		c.Sync(p)
		note("dirtier synced: dirty %d", c.DirtyPages())
	})
	at("sync-a", 3*time.Second, func(p *sim.Proc) {
		write(p, 30000, 8, disk.StageShuffle)
		c.Sync(p)
		note("sync-a: dirty %d", c.DirtyPages())
	})
	at("sync-b", 3*time.Second+100*time.Microsecond, func(p *sim.Proc) {
		write(p, 31000, 8, disk.StageShuffle)
		c.Sync(p)
		note("sync-b: dirty %d", c.DirtyPages())
	})
	at("kicker", 4500*time.Millisecond, func(p *sim.Proc) {
		write(p, 40000, 1, disk.StageSpill)
		p.Sleep(200 * time.Millisecond)
		c.Discard(40000*PageSectors, PageSectors)
		note("discarded: dirty %d", c.DirtyPages())
		p.Sleep(100 * time.Millisecond)
		write(p, 40001, 1, disk.StageSpill)
		note("kicked: dirty %d", c.DirtyPages())
	})
	at("late", 35200*time.Millisecond, func(p *sim.Proc) {
		write(p, 10000, 40, disk.StageSpill)
		note("late: dirty %d", c.DirtyPages())
		p.Sleep(301 * time.Millisecond) // under the flusher's first round
		write(p, 10100, 5, disk.StageSpill)
		note("later: dirty %d", c.DirtyPages())
		p.Sleep(699 * time.Millisecond) // a wake finds these below the ratio
		write(p, 10200, 10, disk.StageSpill)
		note("below the ratio: dirty %d", c.DirtyPages())
	})
	end, err := env.Run(0)
	note("end %v %v stats %+v disk %+v", end, err, c.Stats(), d.Stats())
	return b.String()
}

// TestPinnedWritebackEventOrder compares writebackScenario's log with the one
// recorded when the background flusher was a process. Regenerate
// deliberately with IOCHAR_UPDATE_GOLDEN=1.
func TestPinnedWritebackEventOrder(t *testing.T) {
	const path = "testdata/writeback_order.txt"
	got := writebackScenario()
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
		t.Errorf("writeback event order diverged from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
