// End-to-end data integrity: per-chunk CRC32C checksums computed from the
// writer's bytes, verified on every streaming read, plus the background
// scrubber that walks stored replicas in virtual time looking for silent
// corruption. Verification itself is free in the timing model (real
// checksumming is CPU work the paper's disk traces do not see); the
// *reads* the scrubber performs are charged through the page cache and
// disk like any other I/O, tagged disk.StageScrub so scrub traffic is
// separable in iostat and trace output.
//
// Like recovery, none of this exists unless EnableIntegrity/EnableScrubber
// is called: a run without them computes no checksums, spawns no scrub
// process, and is byte-identical to the seed.
package hdfs

import (
	"hash/crc32"
	"maps"
	"math/rand"
	"slices"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumChunk is the granularity of per-block CRC32C checksums
// (io.bytes.per.checksum; Hadoop's default 512 B is modeled coarser, at
// 16 KiB, to keep sum arrays proportional to scaled block sizes).
const checksumChunk int64 = 16 << 10

// chunkSums returns the CRC32C of each checksumChunk-sized piece of data
// (last chunk short).
func chunkSums(data []byte) []uint32 {
	n := (int64(len(data)) + checksumChunk - 1) / checksumChunk
	sums := make([]uint32, 0, n)
	for off := int64(0); off < int64(len(data)); off += checksumChunk {
		end := off + checksumChunk
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		sums = append(sums, crc32.Checksum(data[off:end], castagnoli))
	}
	return sums
}

// EnableIntegrity switches on end-to-end checksumming: every block written
// or loaded from now on carries per-chunk CRC32C sums, and every streaming
// read verifies the chunks it touches, failing over to another replica and
// queueing read-repair when one is bad. Blocks that already exist are
// checksummed in place (call EnableIntegrity at setup, before any fault can
// corrupt stored bytes, so the sums capture the true content).
func (fs *FS) EnableIntegrity() {
	fs.integrity = true
	for _, b := range fs.blockByID {
		if b.checked() {
			continue
		}
		for _, dn := range b.replicas {
			if sb, ok := dn.blocks[b.id]; ok && !sb.vol.Failed() {
				b.sums = chunkSums(sb.vol.Peek(sb.file.Name()))
				b.verified = sb.vol.Origin(sb.file.Name())
				break
			}
		}
	}
}

// replicaClean checks every checksum chunk overlapping [off, off+length)
// of the replica sb against b's end-to-end sums. Chunk-aligned verification
// is what HDFS does: a read is widened to chunk boundaries for checksumming.
// Its one effect, which no virtual time, event or counter sees, is the memo
// b.verified: a replica of b.size bytes stored in one run that passed (an
// array, or a generated range no Corrupt has split) is clean unhashed and
// unmade, as localfs never writes a stored byte again (Corrupt damages a
// copy, a crash re-slices shorter).
func (fs *FS) replicaClean(b *blockMeta, sb storedBlock, off, length int64) bool {
	if !b.checked() {
		return true
	}
	if sb.vol.Size(sb.file.Name()) != b.size {
		return false // truncated, overgrown or deleted replica is corrupt by definition
	}
	origin := sb.vol.Origin(sb.file.Name())
	if origin.Same(b.verified) {
		return true
	}
	raw, sums := sb.vol.Peek(sb.file.Name()), b.checksums()
	c0 := off / checksumChunk
	c1 := (off + length + checksumChunk - 1) / checksumChunk
	for c := c0; c < c1 && c < int64(len(sums)); c++ {
		lo := c * checksumChunk
		hi := lo + checksumChunk
		if hi > b.size {
			hi = b.size
		}
		if crc32.Checksum(raw[lo:hi], castagnoli) != sums[c] {
			return false
		}
	}
	if off == 0 && length == b.size {
		b.verified = origin
	}
	return true
}

// verifyRange is replicaClean plus the checksum-error counter — the form
// the serving paths (reads, scrub, copies) use.
func (fs *FS) verifyRange(b *blockMeta, sb storedBlock, off, length int64) bool {
	if fs.replicaClean(b, sb, off, length) {
		return true
	}
	fs.stats.ChecksumErrors++
	return false
}

// verifyWhole checks an entire replica's content against b's sums.
func (fs *FS) verifyWhole(b *blockMeta, sb storedBlock) bool {
	return fs.verifyRange(b, sb, 0, b.size)
}

// reportCorrupt is the NameNode learning that dn's replica of b failed a
// checksum: the replica file is deleted, the replica struck from the block
// map, and the block queued for re-replication from a good copy —
// read-repair through the existing pipeline.
func (fs *FS) reportCorrupt(b *blockMeta, dn *DataNode) {
	if sb, ok := dn.blocks[b.id]; ok {
		sb.vol.Delete(sb.file.Name())
		delete(dn.blocks, b.id)
	}
	fs.stats.CorruptReplicas++
	fs.strikeReplica(b, dn)
}

// CorruptReplica flips bytes inside one stored replica — the corrupt-block
// fault's entry point. The victim is chosen deterministically from rng over
// the eligible replicas: those on the named node (when node is non-empty)
// and of the named path's blocks (when path is non-empty); nothing is
// signalled — the corruption is silent until a read or scrub trips over it.
// Returns the corrupted block ID, or -1 when nothing is eligible.
func (fs *FS) CorruptReplica(node, path string, rng *rand.Rand) int64 {
	var eligible map[int64]bool
	if path != "" {
		f, ok := fs.files[path]
		if !ok {
			return -1
		}
		eligible = make(map[int64]bool, len(f.blocks))
		for _, b := range f.blocks {
			eligible[b.id] = true
		}
	}
	type cand struct {
		dn *DataNode
		id int64
	}
	var cands []cand
	for _, dn := range fs.datanodes {
		if node != "" && dn.node.Name != node {
			continue
		}
		if dn.crashed {
			continue
		}
		for _, id := range slices.Sorted(maps.Keys(dn.blocks)) {
			if (eligible == nil || eligible[id]) && !dn.blocks[id].vol.Failed() {
				cands = append(cands, cand{dn, id})
			}
		}
	}
	if len(cands) == 0 {
		return -1
	}
	c := cands[rng.Intn(len(cands))]
	sb := c.dn.blocks[c.id]
	b := fs.blockByID[c.id]
	off := int64(0)
	if b.size > 1 {
		off = rng.Int63n(b.size)
	}
	n := 1 + rng.Intn(64)
	sb.vol.Corrupt(sb.file.Name(), off, n)
	return c.id
}

// ScrubConfig tunes the background scrubber.
type ScrubConfig struct {
	// BytesPerSec rate-limits scrub reads (dfs.datanode.scan.period made a
	// bandwidth knob); <= 0 means unthrottled — each pass runs flat out,
	// limited only by disk speed.
	BytesPerSec int64
	// PassInterval is the idle gap between full passes over the namespace;
	// it must be positive, or a pass over an empty namespace would repeat
	// forever at one instant.
	PassInterval time.Duration
}

// scrubState is the live scrubber hanging off an FS.
type scrubState struct {
	cfg     ScrubConfig
	stopped bool
	// lastPassStart is the start time of the most recently *completed* pass;
	// ScrubWait uses it to wait for a pass that began after a given moment.
	lastPassStart time.Duration
	done          *sim.Cond
}

// EnableScrubber starts the background replica scrubber: a daemon process
// that walks every stored replica in block-ID order, reads its bytes
// through the page cache and disk (tagged StageScrub), verifies them
// against the end-to-end sums, and reports corrupt replicas for
// read-repair. Requires EnableIntegrity. Call once, at setup.
func (fs *FS) EnableScrubber(cfg ScrubConfig) {
	if fs.scrub != nil {
		panic("hdfs: EnableScrubber called twice")
	}
	if !fs.integrity {
		panic("hdfs: EnableScrubber without EnableIntegrity")
	}
	if cfg.PassInterval <= 0 {
		panic("hdfs: EnableScrubber needs a positive PassInterval")
	}
	st := &scrubState{cfg: cfg, done: sim.NewCond(fs.env)}
	fs.scrub = st
	fs.env.Go("scrubber", func(p *sim.Proc) {
		p.SetDaemon(true)
		for !st.stopped {
			start := p.Now()
			fs.scrubPass(p, st)
			if st.stopped {
				return
			}
			st.lastPassStart = start
			st.done.Broadcast()
			p.Sleep(cfg.PassInterval)
		}
	})
}

// scrubPass verifies one full sweep of the namespace: every stored replica
// of every live block, in block-ID then replica order.
func (fs *FS) scrubPass(p *sim.Proc, st *scrubState) {
	for _, id := range slices.Sorted(maps.Keys(fs.blockByID)) {
		if st.stopped {
			return
		}
		b := fs.blockByID[id]
		if b == nil || b.gone {
			continue
		}
		// Snapshot the replica list: reportCorrupt mutates it.
		reps := append([]*DataNode(nil), b.replicas...)
		for _, dn := range reps {
			if st.stopped {
				return
			}
			if dn.crashed {
				continue
			}
			sb, ok := dn.blocks[id]
			if !ok || sb.vol.Failed() {
				continue
			}
			h, err := sb.vol.Open(sb.file.Name())
			if err != nil {
				continue
			}
			h.SetStage(disk.StageScrub)
			h.Scan(p, 0, b.size)
			fs.stats.ScrubbedBlocks++
			fs.stats.ScrubbedBytes += uint64(b.size)
			if !fs.verifyWhole(b, sb) {
				fs.reportCorrupt(b, dn)
			}
			if st.cfg.BytesPerSec > 0 {
				p.Sleep(time.Duration(b.size * int64(time.Second) / st.cfg.BytesPerSec))
			}
		}
	}
}

// ScrubWait blocks p until a full scrub pass that *started* at or after the
// call has completed — every replica present when the wait began has been
// verified at least once. No-op without a scrubber.
func (fs *FS) ScrubWait(p *sim.Proc) {
	st := fs.scrub
	if st == nil {
		return
	}
	now := p.Now()
	for !st.stopped && st.lastPassStart < now {
		st.done.Wait(p)
	}
}

// StopScrubber halts the scrubber at its next block boundary.
func (fs *FS) StopScrubber() {
	if fs.scrub == nil || fs.scrub.stopped {
		return
	}
	fs.scrub.stopped = true
	fs.scrub.done.Broadcast()
}
