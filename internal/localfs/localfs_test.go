package localfs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"iochar/internal/datagen"
	"iochar/internal/disk"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

func rig() (*sim.Env, *disk.Disk, *FS) {
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 22
	d := disk.New(env, p)
	c := pagecache.New(env, d, 1<<16, pagecache.DefaultReadaheadPages)
	return env, d, New(d, c)
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, _, fs := rig()
	want := payload(100_000)
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("a")
		f.Append(p, want[:40_000])
		f.Append(p, want[40_000:])
		got := f.ReadAt(p, 0, int64(len(want)))
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
	env.Run(0)
	if fs.Size("a") != 100_000 {
		t.Errorf("Size = %d, want 100000", fs.Size("a"))
	}
}

func TestReadAtOffsets(t *testing.T) {
	env, _, fs := rig()
	want := payload(10_000)
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("a")
		f.Append(p, want)
		if got := f.ReadAt(p, 5000, 100); !bytes.Equal(got, want[5000:5100]) {
			t.Error("offset read mismatch")
		}
		if got := f.ReadAt(p, 9990, 100); !bytes.Equal(got, want[9990:]) {
			t.Error("EOF-clamped read mismatch")
		}
		if got := f.ReadAt(p, 20_000, 10); got != nil {
			t.Error("read past EOF should be nil")
		}
		if got := f.ReadAt(p, -1, 10); got != nil {
			t.Error("negative offset should be nil")
		}
	})
	env.Run(0)
}

func TestOpenMissingFileErrors(t *testing.T) {
	_, _, fs := rig()
	if _, err := fs.Open("ghost"); err == nil {
		t.Error("want error opening missing file")
	}
	if err := fs.Delete("ghost"); err == nil {
		t.Error("want error deleting missing file")
	}
}

func TestDeleteFreesAndDiscards(t *testing.T) {
	env, d, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("tmp")
		f.Append(p, payload(1<<20)) // 1 MiB dirty in cache
		if err := fs.Delete("tmp"); err != nil {
			t.Fatal(err)
		}
		fs.Cache().Sync(p)
	})
	env.Run(0)
	if w := d.Stats().SectorsWritten; w != 0 {
		t.Errorf("deleted-before-writeback file still wrote %d sectors", w)
	}
	if fs.Size("tmp") != -1 {
		t.Error("file still exists after delete")
	}
	if fs.FreeExtentCount() == 0 {
		t.Error("extents not returned to free list")
	}
}

func TestSpaceReuseAfterDelete(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		a := fs.Create("a")
		a.Append(p, payload(4<<20))
		if err := fs.Delete("a"); err != nil {
			t.Fatal(err)
		}
		b := fs.Create("b")
		b.Append(p, payload(4<<20))
	})
	env.Run(0)
	// b should have reused a's extents: free list coalesced to empty.
	if got := fs.FreeExtentCount(); got != 0 {
		t.Errorf("FreeExtentCount = %d, want 0 (space reused)", got)
	}
}

func TestSoleWriterStaysSequential(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("big")
		for i := 0; i < 16; i++ {
			f.Append(p, payload(1<<20))
		}
	})
	env.Run(0)
	if got := fs.ExtentCount("big"); got != 1 {
		t.Errorf("sole writer produced %d extents, want 1 (sequential layout)", got)
	}
}

func TestConcurrentWritersInterleaveExtents(t *testing.T) {
	env, _, fs := rig()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("spill-%d", i)
		env.Go(name, func(p *sim.Proc) {
			f := fs.Create(name)
			for j := 0; j < 8; j++ {
				f.Append(p, payload(1<<20))
				p.Sleep(1) // interleave allocations
			}
		})
	}
	env.Run(0)
	frag := 0
	for i := 0; i < 4; i++ {
		frag += fs.ExtentCount(fmt.Sprintf("spill-%d", i))
	}
	if frag <= 4 {
		t.Errorf("concurrent writers produced %d extents total, want interleaving (>4)", frag)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("x")
		f.Append(p, payload(1000))
		g := fs.Create("x")
		if g.Size() != 0 {
			t.Errorf("recreate left size %d, want 0", g.Size())
		}
	})
	env.Run(0)
}

func TestAppendToDeletedPanics(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("x")
		f.Append(p, payload(10))
		fs.Delete("x")
		defer func() {
			if recover() == nil {
				t.Error("want panic on append to deleted file")
			}
		}()
		f.Append(p, payload(10))
	})
	env.Run(0)
}

func TestListSorted(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		fs.Create("c")
		fs.Create("a")
		fs.Create("b")
	})
	env.Run(0)
	got := fs.List()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	env, _, fs := rig()
	extents := 0
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("s")
		f.Append(p, payload(5000))
		f.ReadAt(p, 0, 5000)
		extents = fs.ExtentCount("s")
		fs.Delete("s")
	})
	env.Run(0)
	s := fs.Stats()
	if s.FilesCreated != 1 {
		t.Errorf("created = %d, want 1", s.FilesCreated)
	}
	if s.BytesWritten != 5000 || s.BytesRead != 5000 {
		t.Errorf("bytes w/r = %d/%d, want 5000/5000", s.BytesWritten, s.BytesRead)
	}
	// What is deleted and what stays allocated is the file table's to say.
	if extents == 0 {
		t.Error("the file held no extent before its delete")
	}
	if live := fs.List(); len(live) != 0 {
		t.Errorf("live files %v after delete, want none", live)
	}
	if n := fs.LeakedExtents(); n != 0 {
		t.Errorf("%d sectors neither free nor a live file's after delete, want 0", n)
	}
}

// Property: any interleaving of appends across files round-trips all
// contents exactly, and deleting everything empties the allocator back to
// one coalesced free region (or pure bump-pointer state).
func TestQuickMultiFileIntegrity(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 40 {
			ops = ops[:40]
		}
		env := sim.New(9)
		dp := disk.SeagateST1000NM0011()
		dp.Sectors = 1 << 22
		d := disk.New(env, dp)
		c := pagecache.New(env, d, 1<<16, pagecache.DefaultReadaheadPages)
		fs := New(d, c)
		want := map[string][]byte{}
		handles := map[string]*File{}
		okAll := true
		env.Go("io", func(p *sim.Proc) {
			for i, op := range ops {
				name := fmt.Sprintf("f%d", op%5)
				h, ok := handles[name]
				if !ok {
					h = fs.Create(name)
					handles[name] = h
					want[name] = nil
				}
				chunk := payload(int(op)%3000 + 1)
				chunk[0] = byte(i) // make interleavings distinguishable
				h.Append(p, chunk)
				want[name] = append(want[name], chunk...)
			}
			for name, h := range handles {
				got := h.ReadAt(p, 0, int64(len(want[name])))
				if !bytes.Equal(got, want[name]) {
					okAll = false
				}
			}
			for name := range handles {
				if err := fs.Delete(name); err != nil {
					okAll = false
				}
			}
		})
		env.Run(0)
		if !okAll {
			return false
		}
		return fs.FreeExtentCount() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInstallIsInstantAndCold(t *testing.T) {
	env, d, fs := rig()
	f := fs.Create("cold")
	f.Install(payload(500_000))
	if env.Now() != 0 {
		t.Error("Install consumed virtual time")
	}
	if d.Stats().SectorsWritten != 0 {
		t.Error("Install generated disk writes")
	}
	if fs.Size("cold") != 500_000 {
		t.Errorf("Size = %d", fs.Size("cold"))
	}
	// A later read must hit the disk (nothing cached) and return the bytes.
	var ok bool
	env.Go("r", func(p *sim.Proc) {
		got := f.ReadAt(p, 1000, 4096)
		ok = bytes.Equal(got, payload(500_000)[1000:5096])
	})
	env.Run(0)
	if !ok {
		t.Error("installed content mismatch")
	}
	if d.Stats().SectorsRead == 0 {
		t.Error("cold read should hit the disk")
	}
}

func TestInstallThenAppendCoexist(t *testing.T) {
	env, _, fs := rig()
	f := fs.Create("mix")
	f.Install(payload(10_000))
	env.Go("w", func(p *sim.Proc) {
		f.Append(p, payload(5_000))
		got := f.ReadAt(p, 0, 15_000)
		want := append(payload(10_000), payload(5_000)...)
		if !bytes.Equal(got, want) {
			t.Error("install+append content mismatch")
		}
	})
	env.Run(0)
}

// TestCopyByContents: a range copied with ReadContents and AppendContents
// reads what ReadAt returned, at the virtual time and counters of ReadAt
// plus Append, and keeps the source's runs: a copied generated range stays
// generated (its Origin is the source's), and damage to the copy reaches
// neither the source file nor the source.
func TestCopyByContents(t *testing.T) {
	const size = 200_000
	part := datagen.TeraGen{Seed: 5}.Part(0, size+1000)
	held := payload(30_000)
	want := append(append([]byte(nil), part[1000:1000+size]...), held...)
	for j := 50_000; j < 50_100; j++ {
		want[j] ^= 0xFF
	}
	copyRange := func(byContents bool, off, n int64) (got, src []byte, st Stats, now time.Duration) {
		env, _, fs := rig()
		read := datagen.TeraGen{Seed: 5}.Table(0, size+1000).Reader()
		env.Go("io", func(p *sim.Proc) {
			a := fs.Create("a")
			a.InstallSource(read, 1000, size)
			a.Install(held)
			fs.Corrupt("a", 50_000, 100)
			b := fs.Create("b")
			if byContents {
				b.AppendContents(p, a.ReadContents(p, off, n))
			} else {
				b.Append(p, a.ReadAt(p, off, n))
			}
			got = b.ReadAt(p, 0, b.Size())
			fs.Corrupt("b", 0, int(b.Size()))
			src = a.ReadAt(p, 0, a.Size())
		})
		env.Run(0)
		return got, src, fs.Stats(), env.Now()
	}
	for _, r := range [][2]int64{{0, size + 30_000}, {49_000, 2_000}, {1_000, 40_000}, {size - 10, 20}} {
		got, src, st, now := copyRange(true, r[0], r[1])
		wantGot, _, wantSt, wantNow := copyRange(false, r[0], r[1])
		if !bytes.Equal(got, want[r[0]:r[0]+r[1]]) || !bytes.Equal(got, wantGot) {
			t.Errorf("copy of [%d, +%d): not the source's bytes", r[0], r[1])
		}
		if !bytes.Equal(src, want) {
			t.Errorf("copy of [%d, +%d): damage to the copy reached the source", r[0], r[1])
		}
		if st != wantSt || now != wantNow {
			t.Errorf("copy of [%d, +%d): %+v at %v; ReadAt and Append: %+v at %v", r[0], r[1], st, now, wantSt, wantNow)
		}
	}
	// A generated file copied whole is the same stored run.
	env, _, fs := rig()
	read := datagen.TeraGen{Seed: 5}.Table(0, size+1000).Reader()
	env.Go("io", func(p *sim.Proc) {
		a := fs.Create("a")
		a.InstallSource(read, 1000, size)
		b := fs.Create("b")
		b.AppendContents(p, a.ReadContents(p, 0, size))
		if !fs.Origin("b").Same(fs.Origin("a")) {
			t.Error("a whole generated file's copy is not its stored run")
		}
	})
	env.Run(0)
}
