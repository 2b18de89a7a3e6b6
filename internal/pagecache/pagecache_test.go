package pagecache

import (
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

// Property: after any sequence of writes followed by Sync, every page is
// clean and sectors written to disk >= distinct pages dirtied (clustering
// may round up to page boundaries but never lose data).
func TestQuickWriteSyncConservation(t *testing.T) {
	f := func(ops []uint32) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		env := sim.New(3)
		p := disk.SeagateST1000NM0011()
		p.Sectors = 1 << 24
		d := disk.New(env, p)
		opts := DefaultOptions()
		c := New(env, d, 8192, opts)
		dirtied := map[int64]bool{}
		env.Go("w", func(pr *sim.Proc) {
			for _, op := range ops {
				sector := int64(op % (1 << 20))
				n := int(op%64) + 1
				c.Write(pr, sector, n, disk.StageNone)
				first, last := pageRange(sector, n)
				for pg := first; pg < last; pg++ {
					dirtied[pg] = true
				}
			}
			c.Sync(pr)
		})
		env.Run(0)
		if c.DirtyPages() != 0 {
			return false
		}
		written := d.Stats().SectorsWritten
		return written >= uint64(len(dirtied))*PageSectors-written%PageSectors && written >= uint64(len(dirtied))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
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
					if pgp, found := c.pages[pg]; !found || pgp.pending != nil {
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
