package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"iochar/internal/cluster"
	"iochar/internal/sim"
)

func rig(nSlaves int) (*sim.Env, *cluster.Cluster, *FS) {
	env := sim.New(1)
	c, err := cluster.New(env, cluster.DefaultHardware(4096), nSlaves)
	if err != nil {
		panic(err)
	}
	fs := New(env, DefaultConfig(4096), c.Net, c.Slaves)
	return env, c, fs
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + i>>8)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, c, fs := rig(4)
	want := pattern(200_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/data/a", c.Slaves[0].Name, 0)
		w.Write(p, want[:50_000])
		w.Write(p, want[50_000:])
		w.Close(p)
		r, err := fs.Open("/data/a", c.Slaves[1].Name)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := r.ReadAt(p, 0, int64(len(want)))
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
	env.Run(0)
	if fs.Size("/data/a") != 200_000 {
		t.Errorf("Size = %d, want 200000", fs.Size("/data/a"))
	}
}

func TestReplicationFactorHonored(t *testing.T) {
	env, c, fs := rig(5)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/r", c.Slaves[0].Name, 0)
		w.Write(p, pattern(100_000))
		w.Close(p)
	})
	env.Run(0)
	locs, err := fs.BlockLocations("/r")
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range locs {
		if len(l) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(l))
		}
		seen := map[string]bool{}
		for _, n := range l {
			if seen[n] {
				t.Errorf("block %d has duplicate replica on %s", i, n)
			}
			seen[n] = true
		}
	}
}

func TestFirstReplicaIsLocalToWriter(t *testing.T) {
	env, c, fs := rig(4)
	writer := c.Slaves[2].Name
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/local", writer, 0)
		w.Write(p, pattern(64_000))
		w.Close(p)
	})
	env.Run(0)
	locs, _ := fs.BlockLocations("/local")
	for i, l := range locs {
		if l[0] != writer {
			t.Errorf("block %d first replica on %s, want writer %s", i, l[0], writer)
		}
	}
}

func TestBlockSplitting(t *testing.T) {
	env, c, fs := rig(3)
	bs := fs.Config().BlockSize
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/big", c.Slaves[0].Name, 0)
		w.Write(p, pattern(int(bs*3+bs/2)))
		w.Close(p)
	})
	env.Run(0)
	locs, _ := fs.BlockLocations("/big")
	if len(locs) != 4 {
		t.Errorf("blocks = %d, want 4 (3.5 block sizes)", len(locs))
	}
}

// received returns the bytes node's NIC has taken in.
func received(c *cluster.Cluster, node string) uint64 {
	for _, nic := range c.Net.Stats().NICs {
		if nic.Node == node {
			return nic.BytesReceived
		}
	}
	panic("no NIC for " + node)
}

func TestLocalReadAvoidsNetwork(t *testing.T) {
	env, c, fs := rig(4)
	writer := c.Slaves[0]
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/x", writer.Name, 0)
		w.Write(p, pattern(100_000))
		w.Close(p)
		rxBefore := received(c, writer.Name)
		r, _ := fs.Open("/x", writer.Name)
		r.ReadAt(p, 0, 100_000)
		if got := received(c, writer.Name) - rxBefore; got != 0 {
			t.Errorf("local read moved %d bytes over the network", got)
		}
	})
	env.Run(0)
}

func TestRemoteReadUsesNetwork(t *testing.T) {
	env, c, fs := rig(8)
	env.Go("client", func(p *sim.Proc) {
		// A single block keeps the replica set to 3 of 8 slaves, so an
		// outsider node is guaranteed to exist.
		fs.Load("/y", c.Slaves[0].Name, pattern(16_000))
		// Find a slave with no replica.
		locs, _ := fs.BlockLocations("/y")
		holders := map[string]bool{}
		for _, l := range locs {
			for _, n := range l {
				holders[n] = true
			}
		}
		var outsider *cluster.Node
		for _, s := range c.Slaves {
			if !holders[s.Name] {
				outsider = s
				break
			}
		}
		if outsider == nil {
			t.Skip("every slave holds a replica at this scale")
		}
		before := received(c, outsider.Name)
		r, _ := fs.Open("/y", outsider.Name)
		r.ReadAt(p, 0, 16_000)
		if got := received(c, outsider.Name) - before; got != 16_000 {
			t.Errorf("remote read transferred %d bytes, want 16000", got)
		}
	})
	env.Run(0)
}

func TestLoadIsInstantAndCold(t *testing.T) {
	env, c, fs := rig(3)
	fs.Load("/cold", c.Slaves[0].Name, pattern(500_000))
	if env.Now() != 0 {
		t.Error("Load consumed virtual time")
	}
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			if v.Disk().Stats().SectorsWritten != 0 {
				t.Error("Load generated disk writes")
			}
		}
	}
	var read []byte
	env.Go("r", func(p *sim.Proc) {
		r, err := fs.Open("/cold", c.Slaves[1].Name)
		if err != nil {
			t.Fatal(err)
		}
		read, _ = r.ReadAt(p, 1000, 5000)
	})
	env.Run(0)
	if !bytes.Equal(read, pattern(500_000)[1000:6000]) {
		t.Error("loaded content mismatch")
	}
	if env.Now() == 0 {
		t.Error("cold read should consume virtual time (disk access)")
	}
}

func TestDeleteFreesBlocks(t *testing.T) {
	env, c, fs := rig(3)
	fs.Load("/tmp", c.Slaves[0].Name, pattern(300_000))
	before := 0
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			before += len(v.List())
		}
	}
	if before == 0 {
		t.Fatal("no block files created")
	}
	if err := fs.Delete("/tmp"); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			after += len(v.List())
		}
	}
	if after != 0 {
		t.Errorf("%d block files remain after delete", after)
	}
	if fs.Exists("/tmp") {
		t.Error("file still in namespace")
	}
	_ = env
	_ = c
}

func TestOpenWhileWritingErrors(t *testing.T) {
	env, c, fs := rig(3)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/w", c.Slaves[0].Name, 0)
		w.Write(p, pattern(10))
		if _, err := fs.Open("/w", c.Slaves[0].Name); err == nil {
			t.Error("open of in-flight file should fail")
		}
		w.Close(p)
		if _, err := fs.Open("/w", c.Slaves[0].Name); err != nil {
			t.Errorf("open after close failed: %v", err)
		}
	})
	env.Run(0)
}

func TestOpenMissingErrors(t *testing.T) {
	_, c, fs := rig(3)
	if _, err := fs.Open("/ghost", c.Slaves[0].Name); err == nil {
		t.Error("want error")
	}
	if err := fs.Delete("/ghost"); err == nil {
		t.Error("want error")
	}
}

func TestListPrefix(t *testing.T) {
	_, c, fs := rig(3)
	fs.Load("/in/part-0", c.Slaves[0].Name, pattern(10))
	fs.Load("/in/part-1", c.Slaves[1].Name, pattern(10))
	fs.Load("/out/part-0", c.Slaves[2].Name, pattern(10))
	got := fs.List("/in/")
	if len(got) != 2 || got[0] != "/in/part-0" || got[1] != "/in/part-1" {
		t.Errorf("List(/in/) = %v", got)
	}
}

func TestReadAtEOFClamps(t *testing.T) {
	env, c, fs := rig(3)
	want := pattern(1000)
	fs.Load("/e", c.Slaves[0].Name, want)
	env.Go("r", func(p *sim.Proc) {
		r, _ := fs.Open("/e", c.Slaves[0].Name)
		if got, _ := r.ReadAt(p, 900, 500); !bytes.Equal(got, want[900:]) {
			t.Error("EOF clamp mismatch")
		}
		if got, _ := r.ReadAt(p, 2000, 10); got != nil {
			t.Error("read past EOF should be nil")
		}
	})
	env.Run(0)
}

// Property: for any content and any read window, HDFS returns exactly the
// bytes written, across block boundaries and replica choices.
func TestQuickReadWindows(t *testing.T) {
	env, c, fs := rig(4)
	content := pattern(300_000)
	fs.Load("/q", c.Slaves[0].Name, content)
	f := func(offRaw, lenRaw uint32, clientRaw uint8) bool {
		off := int64(offRaw) % int64(len(content))
		length := int64(lenRaw)%50_000 + 1
		client := c.Slaves[int(clientRaw)%len(c.Slaves)].Name
		ok := true
		env.Go("r", func(p *sim.Proc) {
			r, err := fs.Open("/q", client)
			if err != nil {
				ok = false
				return
			}
			got, _ := r.ReadAt(p, off, length)
			end := off + length
			if end > int64(len(content)) {
				end = int64(len(content))
			}
			if !bytes.Equal(got, content[off:end]) {
				ok = false
			}
		})
		env.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigScaling(t *testing.T) {
	c1 := DefaultConfig(1)
	if c1.BlockSize != 64<<20 {
		t.Errorf("BlockSize = %d, want 64 MB", c1.BlockSize)
	}
	c2 := DefaultConfig(1024)
	if c2.BlockSize != 64<<10 {
		t.Errorf("scaled BlockSize = %d, want 64 KB", c2.BlockSize)
	}
	tiny := DefaultConfig(1 << 30)
	if tiny.BlockSize != 16<<10 {
		t.Errorf("BlockSize floor = %d, want 16 KB", tiny.BlockSize)
	}
}

func TestCreateWithReplicationOne(t *testing.T) {
	env, c, fs := rig(4)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/r1", c.Slaves[0].Name, 1)
		w.Write(p, pattern(64_000))
		w.Close(p)
	})
	env.Run(0)
	locs, err := fs.BlockLocations("/r1")
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range locs {
		if len(l) != 1 {
			t.Errorf("block %d has %d replicas, want 1", i, len(l))
		}
		if l[0] != c.Slaves[0].Name {
			t.Errorf("block %d not on the writer", i)
		}
	}
}

func TestCreateWithInvalidReplicationFallsBack(t *testing.T) {
	env, c, fs := rig(4)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/bad", c.Slaves[0].Name, 99) // > datanodes
		w.Write(p, pattern(10_000))
		w.Close(p)
	})
	env.Run(0)
	locs, _ := fs.BlockLocations("/bad")
	for _, l := range locs {
		if len(l) != Replication {
			t.Errorf("fallback replication = %d, want %d", len(l), Replication)
		}
	}
}

func TestReplicationOneMovesLessData(t *testing.T) {
	written := func(rep int) uint64 {
		env, c, fs := rig(4)
		env.Go("client", func(p *sim.Proc) {
			w := fs.CreateWith("/w", c.Slaves[0].Name, rep)
			w.Write(p, pattern(200_000))
			w.Close(p)
			for _, s := range c.Slaves {
				for _, v := range s.HDFSVols {
					v.Cache().Sync(p)
				}
			}
		})
		env.Run(0)
		var total uint64
		for _, s := range c.Slaves {
			for _, v := range s.HDFSVols {
				total += v.Disk().Stats().SectorsWritten
			}
		}
		return total
	}
	one, three := written(1), written(3)
	if three < one*5/2 {
		t.Errorf("replication 3 wrote %d sectors, want ~3x replication 1's %d", three, one)
	}
}

// flatChoose is the flat single-rack placement loop choose had before it
// became the one-rack case of the rack-aware policy, kept as the reference
// model: the writer's own DataNode first, then round-robin across the rest.
func flatChoose(fs *FS, writer string, replication int) []*DataNode {
	live := 0
	for _, dn := range fs.datanodes {
		if !dn.crashed && fs.net.Reachable(writer, dn.node.Name) {
			live++
		}
	}
	if replication > live {
		replication = live
	}
	var out []*DataNode
	if dn, ok := fs.byNode[writer]; ok && !dn.crashed {
		out = append(out, dn)
	}
	for len(out) < replication {
		dn := fs.datanodes[fs.place%len(fs.datanodes)]
		fs.place++
		if dn.crashed || !fs.net.Reachable(writer, dn.node.Name) {
			continue
		}
		dup := false
		for _, have := range out {
			if have == dn {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, dn)
		}
	}
	return out
}

// On one rack the rack-aware policy must pick what the flat loop picked,
// draw after draw from the same evolving cursor: its fruitless remote-rack
// scans move the cursor by whole laps only.
func TestOneRackPlacementMatchesFlatModel(t *testing.T) {
	const slaves = 7
	_, c, fs := rig(slaves)
	_, _, model := rig(slaves)
	names := func(dns []*DataNode) string {
		s := ""
		for _, dn := range dns {
			s += dn.node.Name + " "
		}
		return s
	}
	rng := rand.New(rand.NewSource(20))
	for draw := 0; draw < 1000; draw++ {
		writer := c.Master.Name // a client that is not a DataNode
		if w := rng.Intn(slaves + 1); w < slaves {
			writer = c.Slaves[w].Name
		}
		replication := 1 + rng.Intn(slaves)
		crashed := rng.Intn(1 << slaves)
		if rng.Intn(4) > 0 {
			crashed &= rng.Intn(1 << slaves) // mostly few dead nodes, sometimes most
		}
		for i := range fs.datanodes {
			dead := crashed&(1<<i) != 0
			fs.datanodes[i].crashed, model.datanodes[i].crashed = dead, dead
		}
		got, want := names(fs.choose(writer, replication)), names(flatChoose(model, writer, replication))
		if got != want || fs.place%slaves != model.place%slaves {
			t.Fatalf("draw %d (writer %s, replication %d, crashed %07b): chose [%s] cursor %d, flat model [%s] cursor %d",
				draw, writer, replication, crashed, got, fs.place%slaves, want, model.place%slaves)
		}
	}
}

// TestWriterAllocationPerByteWritten: a reducer-shaped write — several
// blocks of small records, the last one partial, at replication 3 — may
// allocate one block-capacity buffer per block whatever the replication (the
// tail's is staged for the next Writer), the trimmed copy of the tail and
// page-cache bookkeeping on three DataNodes: 1.21 bytes a byte. A first
// buffer that doubled up to the block size came to 1.46; one stored copy per
// replica would land above 3.
func TestWriterAllocationPerByteWritten(t *testing.T) {
	env := sim.New(1)
	c, err := cluster.New(env, cluster.DefaultHardware(64), 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(env, DefaultConfig(64), c.Net, c.Slaves)
	bs := int(fs.cfg.BlockSize)
	if bs != 1<<20 {
		t.Fatalf("block size %d, want 1 MiB", bs)
	}
	rec := pattern(100)
	total := 6*bs + bs/2
	var perByte float64
	env.Go("w", func(p *sim.Proc) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := fs.CreateWith("/out", c.Slaves[0].Name, 3)
		for n := 0; n < total; n += len(rec) {
			if err := w.Write(p, rec[:min(len(rec), total-n)]); err != nil {
				t.Error(err)
			}
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&after)
		perByte = float64(after.TotalAlloc-before.TotalAlloc) / float64(total)
	})
	env.Run(0)
	if fs.Size("/out") != int64(total) || len(fs.files["/out"].blocks) != 7 {
		t.Fatalf("wrote %d bytes in %d blocks, want %d in 7", fs.Size("/out"), len(fs.files["/out"].blocks), total)
	}
	for _, b := range fs.files["/out"].blocks {
		if len(b.replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.id, len(b.replicas))
		}
	}
	t.Logf("%.3f bytes allocated per byte written", perByte)
	if perByte > 1.35 {
		t.Errorf("%.3f bytes allocated per byte written, limit 1.35", perByte)
	}
}

// TestSubBlockFilesAllocateTheirSize: files shorter than a block, written
// in 100-byte records one after another through one FS, each allocate about
// their own size — the trimmed tail the DataNodes keep — because every
// Writer after the first fills the block-capacity buffer its predecessor
// gave back. A buffer that grows by doubling from empty and is then cloned
// costs about three times the file. Each file still reads back its own
// bytes: no block may keep the buffer that goes back on the stack.
func TestSubBlockFilesAllocateTheirSize(t *testing.T) {
	env := sim.New(1)
	c, err := cluster.New(env, cluster.DefaultHardware(64), 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := New(env, DefaultConfig(64), c.Net, c.Slaves)
	bs := int(fs.cfg.BlockSize)
	rec := pattern(100)
	const files = 24
	size := func(i int) int { return bs/4 + i*bs/(2*files) + 50 } // a quarter to three quarters of a block
	total := 0
	var perByte float64
	env.Go("w", func(p *sim.Proc) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < files; i++ {
			rec[0] = byte(i)
			w := fs.CreateWith(fmt.Sprintf("/out/part-%02d", i), c.Slaves[i%3].Name, 3)
			for n := 0; n < size(i); n += len(rec) {
				if err := w.Write(p, rec[:min(len(rec), size(i)-n)]); err != nil {
					t.Error(err)
				}
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
			}
			total += size(i)
		}
		runtime.ReadMemStats(&after)
		perByte = float64(after.TotalAlloc-before.TotalAlloc) / float64(total)
		for i := 0; i < files; i++ {
			r, err := fs.Open(fmt.Sprintf("/out/part-%02d", i), c.Slaves[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadAt(p, 0, int64(size(i)))
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < len(got); n += len(rec) {
				if got[n] != byte(i) {
					t.Fatalf("file %d: the record at byte %d starts %d", i, n, got[n])
				}
			}
		}
	})
	env.Run(0)
	for i := 0; i < files; i++ {
		f := fs.files[fmt.Sprintf("/out/part-%02d", i)]
		if len(f.blocks) != 1 || len(f.blocks[0].replicas) != 3 {
			t.Fatalf("file %d: %d blocks, want one with 3 replicas", i, len(f.blocks))
		}
	}
	t.Logf("%.3f bytes allocated per byte written", perByte)
	if perByte > 1.5 {
		t.Errorf("%.3f bytes allocated per byte written, limit 1.5", perByte)
	}
}

// TestWriterRefusesUseAfterClose: a Writer is finished once it is closed or a
// block of its file could not be stored. A later Write must not add a block
// to the sealed file, a second Close must not seal it again (a second opClose
// in the edit log, a lease released twice), and after a failed flush — the
// block was given away, the file has a hole — both keep returning the error.
func TestWriterRefusesUseAfterClose(t *testing.T) {
	env, c, fs := masterRig(t, 3, MasterConfig{})
	bs := int(fs.cfg.BlockSize)
	env.Go("client", func(p *sim.Proc) {
		defer fs.Master().Stop()
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		if err := w.Write(p, pattern(bs/2)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(p); err != nil {
			t.Fatal(err)
		}
		edits := fs.MasterStats().JournalRecords
		const refused = "hdfs: write to closed file /f"
		if err := w.Write(p, pattern(2*bs)); err == nil || err.Error() != refused {
			t.Errorf("Write after Close: %v, want %q", err, refused)
		}
		if err := w.Close(p); err == nil || err.Error() != refused {
			t.Errorf("second Close: %v, want %q", err, refused)
		}
		if got := fs.MasterStats().JournalRecords; got != edits {
			t.Errorf("refused calls logged %d edit(s)", got-edits)
		}
		if fs.Size("/f") != int64(bs/2) || len(fs.files["/f"].blocks) != 1 {
			t.Errorf("the sealed file is now %d bytes in %d blocks", fs.Size("/f"), len(fs.files["/f"].blocks))
		}

		w = fs.CreateWith("/g", c.Slaves[0].Name, 0)
		for _, n := range c.Slaves {
			fs.CrashDataNode(n.Name)
		}
		failed := w.Write(p, pattern(bs+10))
		if failed == nil {
			t.Fatal("a block was stored with every DataNode down")
		}
		if err := w.Write(p, pattern(10)); err != failed {
			t.Errorf("Write after a failed flush: %v, want the flush error again", err)
		}
		if err := w.Close(p); err != failed {
			t.Errorf("Close after a failed flush: %v, want the flush error again", err)
		}
		if !fs.files["/g"].open || len(fs.files["/g"].blocks) != 1 {
			t.Errorf("after the failed flush /g is open: %v with %d blocks, want open with the one failed block", fs.files["/g"].open, len(fs.files["/g"].blocks))
		}
	})
	env.Run(0)
}
