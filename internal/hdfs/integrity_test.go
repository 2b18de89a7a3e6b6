package hdfs

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"iochar/internal/sim"
)

// fastRecovery is a recovery config small enough that detection and repair
// complete within a short test run.
func fastRecovery() RecoveryConfig {
	return RecoveryConfig{HeartbeatInterval: 100 * time.Millisecond, DeadTimeout: time.Second}
}

// A zero interval would loop forever at one instant, so the Enable calls
// refuse one instead of substituting an unscaled default.
func TestEnableRefusesNonPositiveIntervals(t *testing.T) {
	for name, enable := range map[string]func(fs *FS){
		"heartbeat":    func(fs *FS) { fs.EnableRecovery(RecoveryConfig{DeadTimeout: time.Second}) },
		"dead timeout": func(fs *FS) { fs.EnableRecovery(RecoveryConfig{HeartbeatInterval: time.Second}) },
		"scrub pass":   func(fs *FS) { fs.EnableIntegrity(); fs.EnableScrubber(ScrubConfig{}) },
	} {
		env, _, fs := rig(3)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a zero interval was accepted", name)
				}
			}()
			enable(fs)
		}()
		env.Close()
	}
}

func TestChunkSums(t *testing.T) {
	data := pattern(40_000)
	sums := chunkSums(data)
	if len(sums) != 3 {
		t.Fatalf("got %d chunks, want 3 (two full 16 KiB + tail)", len(sums))
	}
	if got := chunkSums(nil); len(got) != 0 {
		t.Errorf("empty data produced %d sums", len(got))
	}
	// Same bytes, same sums; one flipped byte in the middle chunk changes
	// exactly that chunk's sum.
	again := chunkSums(data)
	mut := append([]byte(nil), data...)
	mut[20_000] ^= 0xFF
	mutSums := chunkSums(mut)
	for i := range sums {
		if sums[i] != again[i] {
			t.Fatalf("chunk %d not deterministic", i)
		}
		changed := mutSums[i] != sums[i]
		if changed != (i == 1) {
			t.Errorf("chunk %d changed=%v after flipping a byte in chunk 1", i, changed)
		}
	}
}

// TestCorruptReadFailsOverAndRepairs: a checksummed read that hits a corrupt
// replica must serve correct bytes from another copy, report the corruption,
// and the NameNode must re-replicate back to full strength.
func TestCorruptReadFailsOverAndRepairs(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	want := pattern(150_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, want)
		w.Close(p)

		// Corrupt the writer-local replica; a local-first read from the same
		// node is then guaranteed to hit the bad copy before failing over.
		rng := rand.New(rand.NewSource(7))
		if id := fs.CorruptReplica(c.Slaves[0].Name, "/f", rng); id < 0 {
			t.Fatal("CorruptReplica found no eligible replica")
		}
		r, err := fs.Open("/f", c.Slaves[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after corruption: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read served wrong bytes instead of failing over")
		}
		fs.WaitRecovered(p)
		fs.StopRecovery()
	})
	env.Run(0)

	st := fs.RecoveryStats()
	if st.ChecksumErrors == 0 {
		t.Error("no checksum error counted")
	}
	if st.CorruptReplicas == 0 {
		t.Error("no corrupt replica reported")
	}
	if st.ReReplicatedBlocks == 0 {
		t.Error("read-repair made no copy")
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("replication audit after repair: %s", a.String())
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks survived read-repair: %v", bad)
	}
}

// TestCorruptLoadedBlockSparesSiblingReplicas: the replicas of a loaded block
// share one backing array with the slice given to Load, so corrupt-block on
// one of them is the case where damage could spread. It must stay in the
// struck replica: the siblings still verify, the loader's slice and a read
// result obtained before the fault are untouched, and read-repair restores
// the struck copy.
func TestCorruptLoadedBlockSparesSiblingReplicas(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	data := pattern(int(fs.cfg.BlockSize))
	want := pattern(len(data))
	victim := c.Slaves[0].Name
	fs.Load("/in", victim, data)
	b := fs.files["/in"].blocks[0]
	if len(fs.files["/in"].blocks) != 1 || len(b.replicas) != 3 || b.replicas[0].node.Name != victim {
		t.Fatalf("want one block with three replicas, the first on %s", victim)
	}
	env.Go("client", func(p *sim.Proc) {
		r, err := fs.Open("/in", victim)
		if err != nil {
			t.Fatal(err)
		}
		before, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}

		if id := fs.CorruptReplica(victim, "/in", rand.New(rand.NewSource(7))); id != b.id {
			t.Fatalf("CorruptReplica struck block %d, want %d", id, b.id)
		}
		if !bytes.Equal(data, want) {
			t.Error("the corruption wrote through to the slice given to Load")
		}
		if !bytes.Equal(before, want) {
			t.Error("the corruption changed a read result obtained before it")
		}
		for _, dn := range b.replicas {
			if clean := fs.replicaClean(b, dn.blocks[b.id], 0, b.size); clean != (dn.node.Name != victim) {
				t.Errorf("replica on %s verifies: %v", dn.node.Name, clean)
			}
		}

		// A local-first read on the victim hits the bad copy, fails over and
		// queues the repair.
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after corruption: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read served wrong bytes instead of failing over")
		}
		fs.WaitRecovered(p)
		fs.StopRecovery()
	})
	env.Run(0)

	if st := fs.RecoveryStats(); st.CorruptReplicas != 1 || st.ReReplicatedBlocks != 1 {
		t.Errorf("got %d corrupt replica(s) and %d re-replicated block(s), want 1 and 1", st.CorruptReplicas, st.ReReplicatedBlocks)
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("replication audit after repair: %s", a.String())
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks survived read-repair: %v", bad)
	}
}

// TestIntegrityOffServesCorruptBytes pins the gate: without EnableIntegrity
// nothing verifies, so a corrupted local replica is served as-is.
func TestIntegrityOffServesCorruptBytes(t *testing.T) {
	env, c, fs := rig(4)
	want := pattern(100_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, want)
		w.Close(p)
		rng := rand.New(rand.NewSource(7))
		if id := fs.CorruptReplica(c.Slaves[0].Name, "/f", rng); id < 0 {
			t.Fatal("CorruptReplica found no eligible replica")
		}
		r, err := fs.Open("/f", c.Slaves[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			t.Error("corrupted replica read back clean — corruption did not land?")
		}
	})
	env.Run(0)
}

// TestScrubberFindsSilentCorruption: corruption in a block nobody reads is
// invisible to the foreground path; a scrub pass must find and repair it.
func TestScrubberFindsSilentCorruption(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	fs.EnableScrubber(ScrubConfig{BytesPerSec: -1, PassInterval: 50 * time.Millisecond})
	want := pattern(120_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/silent", c.Slaves[1].Name, 0)
		w.Write(p, want)
		w.Close(p)
		rng := rand.New(rand.NewSource(3))
		if id := fs.CorruptReplica("", "/silent", rng); id < 0 {
			t.Fatal("CorruptReplica found no eligible replica")
		}
		fs.ScrubWait(p)
		fs.WaitRecovered(p)
		fs.StopScrubber()
		fs.StopRecovery()
	})
	env.Run(0)

	st := fs.RecoveryStats()
	if st.ScrubbedBlocks == 0 || st.ScrubbedBytes == 0 {
		t.Errorf("scrubber did no work: %+v", st)
	}
	if st.CorruptReplicas == 0 {
		t.Error("scrubber missed the corruption")
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks survived scrub: %v", bad)
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("replication audit after scrub repair: %s", a.String())
	}
}

// TestScrubberChargesScrubStage: scrub reads must be disk I/O tagged with
// the scrub stage, not free, and not attributed to foreground stages.
func TestScrubberChargesScrubStage(t *testing.T) {
	env, c, fs := rig(3)
	fs.EnableIntegrity()
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/s", c.Slaves[0].Name, 0)
		w.Write(p, pattern(80_000))
		w.Close(p)
	})
	env.Run(0)
	// Drop caches so the scrub pass must touch the disks.
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			v.Cache().DropAll()
		}
	}
	before := int64(0)
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			before += int64(v.Disk().Stats().SectorsRead)
		}
	}
	fs.EnableScrubber(ScrubConfig{BytesPerSec: -1, PassInterval: time.Second})
	env.Go("wait", func(p *sim.Proc) {
		fs.ScrubWait(p)
		fs.StopScrubber()
	})
	env.Run(0)
	after := int64(0)
	for _, s := range c.Slaves {
		for _, v := range s.HDFSVols {
			after += int64(v.Disk().Stats().SectorsRead)
		}
	}
	if after <= before {
		t.Errorf("scrub pass read no sectors (before=%d after=%d)", before, after)
	}
}

// TestDataLossErrorStructured: when every replica of a block is gone, the
// reader's error must name the path, the lost block IDs, and the file's
// replication target, so callers can tell promised loss from a bug.
func TestDataLossErrorStructured(t *testing.T) {
	env, c, fs := rig(4)
	want := pattern(90_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/once", c.Slaves[0].Name, 1)
		w.Write(p, want)
		w.Close(p)
		locs, err := fs.BlockLocations("/once")
		if err != nil {
			t.Fatal(err)
		}
		fs.CrashDataNode(locs[0][0])
		r, err := fs.Open("/once", c.Slaves[1].Name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.ReadAt(p, 0, int64(len(want)))
		dl, ok := err.(*DataLossError)
		if !ok {
			t.Fatalf("read error = %v (%T), want *DataLossError", err, err)
		}
		if dl.Path != "/once" {
			t.Errorf("Path = %q, want /once", dl.Path)
		}
		if dl.Want != 1 {
			t.Errorf("Want = %d, want 1", dl.Want)
		}
		if len(dl.Blocks) == 0 {
			t.Error("no lost block IDs named")
		}
	})
	env.Run(0)
}

// TestReadBlocksMatchesReadAt: block by block or assembled, a whole-file read
// returns the same bytes at the same virtual cost — on a healthy multi-block
// file, and with integrity on and the reader-local replica of the middle
// block corrupted, where both must fail over and report the same strike.
func TestReadBlocksMatchesReadAt(t *testing.T) {
	type outcome struct {
		data    []byte
		blocks  int
		elapsed time.Duration
		stats   RecoveryStats
	}
	read := func(corrupt, blockwise bool) outcome {
		env, c, fs := rig(4)
		fs.EnableIntegrity()
		fs.EnableRecovery(fastRecovery())
		client := c.Slaves[0].Name
		var out outcome
		env.Go("client", func(p *sim.Proc) {
			w := fs.CreateWith("/f", client, 0)
			w.Write(p, pattern(int(2*fs.cfg.BlockSize+5_000)))
			w.Close(p)
			if corrupt {
				mid := fs.files["/f"].blocks[1]
				sb := mid.replicas[0].blocks[mid.id]
				if mid.replicas[0].node.Name != client || !sb.vol.Corrupt(blockFileName(mid.id), 100, 8) {
					t.Fatal("could not corrupt the reader-local replica of the middle block")
				}
			}
			r, err := fs.Open("/f", client)
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if blockwise {
				err = r.ReadBlocks(p, func(block []byte) error {
					out.data = append(out.data, block...)
					out.blocks++
					return nil
				})
			} else {
				out.data, err = r.ReadAt(p, 0, r.Size())
			}
			if err != nil {
				t.Fatal(err)
			}
			out.elapsed = p.Now() - start
			out.stats = fs.RecoveryStats()
			fs.WaitRecovered(p)
			fs.StopRecovery()
		})
		env.Run(0)
		return out
	}
	for _, corrupt := range []bool{false, true} {
		whole, blockwise := read(corrupt, false), read(corrupt, true)
		if !bytes.Equal(blockwise.data, pattern(len(whole.data))) || !bytes.Equal(blockwise.data, whole.data) {
			t.Errorf("corrupt=%v: ReadBlocks concatenated differs from ReadAt(0, Size())", corrupt)
		}
		if blockwise.blocks != 3 {
			t.Errorf("corrupt=%v: fn saw %d blocks, want 3", corrupt, blockwise.blocks)
		}
		if blockwise.elapsed != whole.elapsed || blockwise.stats != whole.stats {
			t.Errorf("corrupt=%v: ReadBlocks took %v with %+v, ReadAt %v with %+v", corrupt, blockwise.elapsed, blockwise.stats, whole.elapsed, whole.stats)
		}
		if got := whole.stats.ChecksumErrors; (got != 0) != corrupt {
			t.Errorf("corrupt=%v: %d checksum errors", corrupt, got)
		}
	}
}

// TestReadBlocksStopsAtFnError: the caller's error comes back as it is and
// no further block is read.
func TestReadBlocksStopsAtFnError(t *testing.T) {
	env, c, fs := rig(3)
	stop := errors.New("enough")
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, pattern(int(3*fs.cfg.BlockSize)))
		w.Close(p)
		r, err := fs.Open("/f", c.Slaves[1].Name)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		err = r.ReadBlocks(p, func([]byte) error { calls++; return stop })
		if err != stop || calls != 1 {
			t.Errorf("ReadBlocks = %v after %d calls, want the caller's error after 1", err, calls)
		}
	})
	env.Run(0)
}

// writeRecords streams want into path from client in small records, the way
// a reducer does, calling mid (if not nil) once the first block has flushed.
func writeRecords(t *testing.T, p *sim.Proc, fs *FS, path, client string, want []byte, mid func()) {
	t.Helper()
	w := fs.CreateWith(path, client, 3)
	for off := 0; off < len(want); off += 100 {
		if err := w.Write(p, want[off:min(off+100, len(want))]); err != nil {
			t.Fatal(err)
		}
		if mid != nil && len(fs.files[path].blocks) == 1 {
			mid()
			mid = nil
		}
	}
	if err := w.Close(p); err != nil {
		t.Fatal(err)
	}
}

// sharedArray returns the first byte of the one array every live replica of
// b is stored in, failing the test if they do not all share it.
func sharedArray(t *testing.T, b *blockMeta) *byte {
	t.Helper()
	var first *byte
	for _, dn := range b.replicas {
		sb := dn.blocks[b.id]
		if raw := sb.vol.Peek(sb.file.Name()); first == nil {
			first = &raw[0]
		} else if &raw[0] != first {
			t.Fatalf("block %d: the replica on %s is stored in an array of its own", b.id, dn.node.Name)
		}
	}
	return first
}

// TestPipelineReplicasShareOneArray: a block written through the pipeline is
// one array on all three DataNodes, as a loaded one is, so corrupt-block on
// one replica is again the case where damage could spread. The siblings
// still verify and read-repair's copy shares the clean array. The read-back
// against the writer's bytes is the scribble detector: the chunk CRCs trust
// an array they have passed, so a write into it in place would pass them.
func TestPipelineReplicasShareOneArray(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	want := pattern(2*int(fs.cfg.BlockSize) + 5_000)
	victim := c.Slaves[0].Name
	env.Go("client", func(p *sim.Proc) {
		writeRecords(t, p, fs, "/f", victim, want, nil)
		blocks := fs.files["/f"].blocks
		if len(blocks) != 3 {
			t.Fatalf("wrote %d blocks, want 3", len(blocks))
		}
		for _, b := range blocks {
			if len(b.replicas) != 3 {
				t.Fatalf("block %d has %d replicas, want 3", b.id, len(b.replicas))
			}
			sharedArray(t, b)
		}

		struck := fs.blockByID[fs.CorruptReplica(victim, "/f", rand.New(rand.NewSource(7)))]
		for _, dn := range struck.replicas {
			if clean := fs.replicaClean(struck, dn.blocks[struck.id], 0, struck.size); clean != (dn.node.Name != victim) {
				t.Errorf("replica of block %d on %s verifies: %v", struck.id, dn.node.Name, clean)
			}
		}
		r, err := fs.Open("/f", victim)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.ReadAt(p, 0, r.Size()); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read after corruption: %v, or wrong bytes served instead of failing over", err)
		}
		fs.WaitRecovered(p)
		fs.StopRecovery()
		if len(struck.replicas) != 3 {
			t.Fatalf("block %d has %d replicas after read-repair, want 3", struck.id, len(struck.replicas))
		}
		sharedArray(t, struck) // the repaired copy shares its source's array
	})
	env.Run(0)

	if st := fs.RecoveryStats(); st.CorruptReplicas != 1 || st.ReReplicatedBlocks != 1 {
		t.Errorf("got %d corrupt replica(s) and %d re-replicated block(s), want 1 and 1", st.CorruptReplicas, st.ReReplicatedBlocks)
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks survived read-repair: %v", bad)
	}
}

// TestCrashMidFileTruncatesOnlyItsOwnReplica: a DataNode that loses power
// while a file is being written comes back with its unflushed replica cut
// short. Crash truncation re-slices the stored array, which its siblings
// share: they must keep the whole block, and the copy that replaces the lost
// replica must share theirs. As above, the read-back is what would see the
// truncation write into the shared array. One-MiB blocks outgrow the dirty
// limits, so the crash keeps a flushed prefix and the stored slice is cut
// inside it; at the rig's 16 KiB blocks it was cut to nothing and dropped,
// and the re-slice never ran.
func TestCrashMidFileTruncatesOnlyItsOwnReplica(t *testing.T) {
	env, c, _ := rig(5)
	fs := New(env, Config{BlockSize: 1 << 20}, c.Net, c.Slaves)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	want := pattern(2*int(fs.cfg.BlockSize) + 5_000)
	env.Go("client", func(p *sim.Proc) {
		var first *blockMeta
		writeRecords(t, p, fs, "/f", c.Slaves[0].Name, want, func() {
			first = fs.files["/f"].blocks[0]
			victim := first.replicas[1]
			sb := victim.blocks[first.id]
			for _, vol := range victim.node.HDFSVols {
				vol.Crash()
			}
			fs.CrashDataNode(victim.node.Name)
			if n := sb.file.Size(); n == 0 || n >= first.size {
				t.Fatalf("the crash left %d of the victim's %d bytes; the test needs a flushed prefix of them", n, first.size)
			}
			for _, dn := range first.replicas {
				if clean := fs.replicaClean(first, dn.blocks[first.id], 0, first.size); clean != (dn != victim) {
					t.Errorf("after the crash the replica on %s verifies: %v", dn.node.Name, clean)
				}
			}
		})
		fs.WaitRecovered(p)
		fs.StopRecovery()
		if len(first.replicas) != 3 {
			t.Fatalf("block %d has %d replicas after re-replication, want 3", first.id, len(first.replicas))
		}
		sharedArray(t, first)
		r, err := fs.Open("/f", c.Slaves[0].Name)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.ReadAt(p, 0, r.Size()); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read back after the crash: %v, or wrong bytes", err)
		}
	})
	env.Run(0)

	if st := fs.RecoveryStats(); st.ReReplicatedBlocks == 0 {
		t.Error("nothing was re-replicated")
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("replication audit after re-replication: %s", a.String())
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks after the crash: %v", bad)
	}
}

// cleanByRecompute is replicaClean without its memo, the model it is held
// to: the replica's bytes checksummed afresh and compared chunk by chunk
// with b's sums over the chunks [off, off+length) touches, a replica of the
// wrong length being corrupt.
func cleanByRecompute(b *blockMeta, sb storedBlock, off, length int64) bool {
	if b.sums == nil {
		return true
	}
	raw := sb.vol.Peek(sb.file.Name())
	if int64(len(raw)) != b.size {
		return false
	}
	c0, c1 := off/checksumChunk, (off+length+checksumChunk-1)/checksumChunk
	return slices.Equal(chunkSums(raw)[c0:c1], b.sums[c0:c1])
}

// TestVerifyMemoMatchesRecompute: replicaClean's memo never changes its
// answer. A run meets every way a stored replica comes about or changes: a
// load and a pipeline write, corrupt-block, a read that fails over and the
// read-repair it queues, crash truncation of an unflushed replica, the
// DataNode's restart and rejoin, and a scrub pass that finds a second
// corruption. After each step, every replica on every DataNode verifies —
// as a whole block and over its last chunk — exactly as a recompute says.
func TestVerifyMemoMatchesRecompute(t *testing.T) {
	// One-MiB blocks outgrow the dirty limits, so a crash keeps a flushed
	// prefix of the unflushed replica: a cut that is empty would never meet
	// the memo.
	env, c, _ := rig(5)
	fs := New(env, Config{BlockSize: 1 << 20}, c.Net, c.Slaves)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	check := func(step string) {
		t.Helper()
		replicas := 0
		for _, dn := range fs.datanodes {
			for _, id := range slices.Sorted(maps.Keys(dn.blocks)) {
				b, sb := fs.blockByID[id], dn.blocks[id]
				last := (b.size - 1) / checksumChunk * checksumChunk
				for _, r := range [][2]int64{{0, b.size}, {last, b.size - last}} {
					if got, want := fs.replicaClean(b, sb, r[0], r[1]), cleanByRecompute(b, sb, r[0], r[1]); got != want {
						t.Errorf("%s: block %d on %s, bytes [%d, %d): replicaClean %v, recomputed %v",
							step, id, dn.node.Name, r[0], r[0]+r[1], got, want)
					}
				}
				replicas++
			}
		}
		if replicas == 0 {
			t.Fatalf("%s: no replica to check", step)
		}
	}
	want := pattern(2*int(fs.cfg.BlockSize) + 5_000)
	reader := c.Slaves[0].Name
	fs.Load("/in", reader, want)
	env.Go("client", func(p *sim.Proc) {
		writeRecords(t, p, fs, "/f", c.Slaves[1].Name, want, nil)
		check("load and pipeline write")

		if fs.CorruptReplica(reader, "/in", rand.New(rand.NewSource(7))) < 0 {
			t.Fatal("CorruptReplica found no replica")
		}
		check("corrupt-block")

		r, err := fs.Open("/in", reader)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.ReadAt(p, 0, r.Size()); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after corruption: %v, or wrong bytes", err)
		}
		fs.WaitRecovered(p)
		if st := fs.RecoveryStats(); st.ChecksumErrors == 0 || st.ReReplicatedBlocks == 0 {
			t.Fatalf("the read neither failed over nor queued a repair: %+v", st)
		}
		check("failed-over read and read-repair")

		var victim *DataNode
		writeRecords(t, p, fs, "/g", c.Slaves[2].Name, want, func() {
			first := fs.files["/g"].blocks[0]
			victim = first.replicas[1]
			for _, vol := range victim.node.HDFSVols {
				vol.Crash()
			}
			fs.CrashDataNode(victim.node.Name)
			if n := victim.blocks[first.id].file.Size(); n == 0 || n >= first.size {
				t.Fatalf("the crash left %d of the victim's %d bytes; the step needs a flushed prefix of them", n, first.size)
			}
			check("crash truncation")
		})
		fs.WaitRecovered(p)
		for _, vol := range victim.node.HDFSVols {
			vol.Remount(p)
		}
		fs.RejoinDataNode(p, victim.node.Name)
		fs.WaitRecovered(p)
		check("restart and rejoin")

		if fs.CorruptReplica("", "/f", rand.New(rand.NewSource(3))) < 0 {
			t.Fatal("CorruptReplica found no replica")
		}
		fs.EnableScrubber(ScrubConfig{BytesPerSec: -1, PassInterval: time.Hour})
		fs.ScrubWait(p)
		fs.StopScrubber()
		fs.WaitRecovered(p)
		check("scrub pass")
		fs.StopRecovery()
	})
	env.Run(0)

	if st := fs.RecoveryStats(); st.CorruptReplicas != 2 || st.StaleReplicasPurged == 0 {
		t.Errorf("got %d corrupt replica(s) and %d stale one(s) purged, want 2 and some", st.CorruptReplicas, st.StaleReplicasPurged)
	}
	if a := fs.AuditReplication(); !a.OK() || len(a.BadChunks) != 0 {
		t.Errorf("replication audit at the end: %s, bad chunks %v", a.String(), a.BadChunks)
	}
}

// auditIntegrityReference is the integrity audit as the pass of its own it
// was until the replication audit took it over: every live replica of every
// live block checked against the block's sums by recomputing them. It is the
// model ReplicationAudit.BadChunks is held to.
func auditIntegrityReference(fs *FS) []string {
	if !fs.integrity {
		return nil
	}
	var bad []string
	for _, id := range slices.Sorted(maps.Keys(fs.blockByID)) {
		b := fs.blockByID[id]
		for _, dn := range b.replicas {
			if dn.crashed {
				continue
			}
			sb, ok := dn.blocks[id]
			if !ok || sb.vol.Failed() {
				continue
			}
			if !cleanByRecompute(b, sb, 0, b.size) {
				bad = append(bad, dn.node.Name+"/"+blockFileName(id))
			}
		}
	}
	return bad
}

// TestBadChunksMatchIntegrityPass: the replication audit's BadChunks is
// what the separate integrity pass reported, with integrity off and on,
// over clean, corrupt and wrong-size replicas — and over a wrong-size
// replica of a block without sums, which is stale but, its sums being nil,
// no bad chunk.
func TestBadChunksMatchIntegrityPass(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		env, c, fs := rig(4)
		if integrity {
			fs.EnableIntegrity()
		}
		fs.Load("/a", c.Slaves[0].Name, pattern(300_000))
		fs.Load("/b", c.Slaves[1].Name, pattern(200_000))
		check := func(stage string, wantBad, wantStale int) {
			t.Helper()
			a := fs.AuditReplication()
			want := auditIntegrityReference(fs)
			if !slices.Equal(a.BadChunks, want) || len(want) != wantBad || len(a.Stale) != wantStale {
				t.Errorf("integrity %v, %s: BadChunks %v, the integrity pass %v (want %d), Stale %v (want %d)",
					integrity, stage, a.BadChunks, want, wantBad, a.Stale, wantStale)
			}
		}
		bad := func(n int) int {
			if integrity {
				return n
			}
			return 0
		}
		check("clean", 0, 0)
		if fs.CorruptReplica(c.Slaves[0].Name, "/a", rand.New(rand.NewSource(3))) < 0 {
			t.Fatal("CorruptReplica found no replica")
		}
		check("one corrupt replica", bad(1), bad(1))

		b := fs.files["/b"].blocks[0]
		dn := b.replicas[len(b.replicas)-1]
		short := dn.blocks[b.id].vol.Create("short")
		short.Install(pattern(100))
		dn.blocks[b.id] = storedBlock{file: short, vol: short.FS()}
		check("and one short replica", bad(2), bad(1)+1)
		b.sums = nil
		check("whose block has no sums", bad(1), bad(1)+1)
		env.Close()
	}
}
