package mapred

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// split is one map task's input slice.
type split struct {
	file  string
	off   int64
	len   int64
	hosts []string // nodes holding a replica of the first block
}

// kvEnt is the index entry of one buffered map output pair — Hadoop's kvmeta
// record. The pair itself sits in the task arena in wire form
// (uvarint klen | key | uvarint vlen | value) and the sort moves only these
// 24 bytes. prefix is the first eight key bytes, big-endian and zero-padded,
// so (part, prefix) is a twelve-byte fixed-width key a stable radix sort
// orders without touching the arena; koff, which grows with every pair
// buffered, is the emission order that stability preserves and the
// comparator's tiebreak where a prefix tie sends entries to it.
type kvEnt struct {
	prefix uint64
	koff   uint32 // arena offset of the key's first byte
	klen   uint32
	vlen   uint32
	part   uint32
}

func (e kvEnt) key(arena []byte) []byte { return arena[e.koff : e.koff+e.klen] }

func (e kvEnt) val(arena []byte) []byte {
	vo := e.koff + e.klen + uvarintLen(e.vlen)
	return arena[vo : vo+e.vlen]
}

// rec is the pair in wire form, ready to append to a run.
func (e kvEnt) rec(arena []byte) []byte {
	return arena[e.koff-uvarintLen(e.klen) : e.koff+e.klen+uvarintLen(e.vlen)+e.vlen]
}

// digit is byte d of the entry's radix key, least significant first: eight
// bytes of prefix, then four of part.
func (e kvEnt) digit(d int) byte {
	w := e.prefix
	if d >= 8 {
		w = uint64(e.part)
	}
	return byte(w >> (8 * (d & 7)))
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for n.
func uvarintLen(n uint32) uint32 { return (uint32(bits.Len32(n|1)) + 6) / 7 }

// KeyPrefix packs the first eight bytes of k big-endian, zero-padding a
// shorter key: unequal prefixes order as the keys do, equal ones decide
// nothing ("a" and "a\x00" collide) and the full keys must be compared.
func KeyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// segment locates one partition's data inside a map output file.
//
// own is the array from rt.runs the file was given for it (compression off,
// see appendRun), and who gives it back is the ownership rule: a spill's
// after the attempt's multi-spill merge has deleted the spill file; a map
// output's after the one reducer that ReadOnce'd it has merged it (the
// reducer's diskRun.own, gone back after its final merge and Delete, is the
// same rule). A merge whose output is a lone input run stores that run's
// array, so the output takes over the input's record and the input's goes.
type segment struct {
	off     int64
	clen    int64 // compressed length on disk
	records int64
	kept    keptRun // a spill's, for the attempt's own merge
	own     run
}

// mapOutput is the shuffle-visible result of one finished map task.
type mapOutput struct {
	taskIdx int
	node    *cluster.Node
	inc     int // node incarnation the attempt started under
	vol     *localfs.FS
	file    *localfs.File
	segs    []segment // one per reduce partition
	lost    bool      // node died or fetches failed; a replacement will be produced
}

// mapTask executes one map attempt on a node. It is called from a map-slot
// worker process. Several attempts of the same task may run concurrently
// under speculation; the first to complete wins, the rest abandon at the
// next chunk boundary and clean up after themselves.
func (rt *Runtime) mapTask(p *sim.Proc, job *Job, js *jobState, taskIdx, attempt int, sp split, node *cluster.Node) {
	cfg := rt.cfg
	reader, err := rt.fs.Open(sp.file, node.Name)
	if err != nil {
		panic(fmt.Sprintf("mapred: map %d: %v", taskIdx, err))
	}
	it := recordIter{format: job.Format, splitOff: sp.off, splitLen: sp.len, fileSize: reader.Size()}
	readOff, readLen := it.readRange()

	nparts := job.NumReduces
	state := &mapState{
		rt: rt, job: job, node: node, inc: node.Incarnation(),
		spillBase: fmt.Sprintf("m_%06d_a%d", taskIdx, attempt),
	}
	defer state.recycle()
	var inRecords, inBytes, outRecords, outBytes int64
	var cpu time.Duration
	emit := func(k, v []byte) {
		outRecords++
		outBytes += int64(len(k) + len(v))
		// add stores the partition as a uint32 and spill walks 0 … nparts-1: a
		// pair sent anywhere else would be buffered, sorted and never written.
		part := job.Partitioner(k, nparts)
		if uint(part) >= uint(nparts) {
			panic(fmt.Sprintf("mapred: job %s: partitioner sent key %q to partition %d of %d reduces", job.Name, k, part, nparts))
		}
		state.add(p, part, k, v)
	}
	handle := func(rec []byte) {
		inRecords++
		inBytes += int64(len(rec))
		cpu += time.Duration(parseNsPerRecord + parseNsPerByte*float64(len(rec)))
		cpu += time.Duration(job.Costs.MapNsPerRecord + job.Costs.MapNsPerByte*float64(len(rec)))
		job.Mapper.Map(rec, emit)
	}
	// Stream the split chunk by chunk, interleaving disk reads with record
	// processing as Hadoop's record readers do — the interleaving is what
	// lets CPU-bound workloads hide their I/O behind computation.
	fr := newFramer(it)
	for pos := readOff; pos < readOff+readLen && !fr.done; pos += cfg.chunkBytes {
		if js.taskDone(taskIdx) {
			state.abandon() // another attempt won; stop wasting the disks
			return
		}
		if state.zombie() || (js.faulty && js.failed != nil) {
			state.abandon() // our tracker died mid-task, or the job is over
			return
		}
		n := cfg.chunkBytes
		if pos+n > readOff+readLen {
			n = readOff + readLen - pos
		}
		data, err := reader.ReadAt(p, pos, n)
		if err != nil {
			state.abandon()
			if state.zombie() {
				return // zombie attempt: our own node died mid-read, so the
				// failure is ours, not the data's; the task re-runs elsewhere
			}
			// A live node cannot read the split: every replica of an input
			// block is gone, and no task re-execution can recover the job.
			js.fail(&JobError{Job: job.Name, Reason: fmt.Sprintf("map %d: input unreadable", taskIdx), Err: err})
			return
		}
		fr.feed(data, handle)
		if cpu > 0 {
			node.Compute(p, cpu)
			cpu = 0
		}
	}
	out := state.finish(p, taskIdx)
	if out == nil {
		return // the node bounced mid-merge; the attempt died with it
	}
	if !js.completeMap(out) {
		return // lost the race at the wire; completeMap discarded the output
	}
	js.counters.MapInputRecords += inRecords
	js.counters.MapInputBytes += inBytes
	js.counters.MapOutputRecords += outRecords
	js.counters.MapOutputBytes += outBytes
	js.counters.Spills += state.spillCount
	js.counters.CompressedMapOutput += state.compressedBytes
	js.counters.MapSpillBytes += state.spillBytes
	js.counters.MapMergeReadBytes += state.mergeReadBytes
	js.counters.MapMergeWriteBytes += state.mergeWriteBytes
	js.counters.CombineInput += state.combineIn
	if attempt > 1 {
		js.counters.SpeculativeWins++
	}
}

// zombie reports whether the attempt's machine died under it — including a
// crash followed by a restart, which an aliveness check cannot see. A
// zombie's spill files were truncated by the crash, so it must abandon
// rather than merge them.
func (ms *mapState) zombie() bool {
	return ms.rt.faulty && (!ms.node.Alive() || ms.node.Incarnation() != ms.inc)
}

// abandon deletes the spill files of a cancelled attempt.
func (ms *mapState) abandon() {
	for i, sf := range ms.spills {
		_ = sf.vol.Delete(fmt.Sprintf("%s.spill%d", ms.spillBase, i))
	}
	ms.spills = nil
}

// sortBuf is a map attempt's collection buffer: the byte arena, the index
// entries whose offsets point into it, and the buffers a sorted partition is
// combined on its way to the spill file. Nothing in it outlives the spill
// that filled it.
type sortBuf struct {
	arena   []byte
	ents    []kvEnt
	scratch run      // a combiner's output, grown by append: copied into an exact-fit run
	vals    [][]byte // one combiner group's values: views into arena
}

// radixWork is the working space of sortKVEntries: the passes' other side
// and the per-digit histograms (12 KB, kept off the map workers' stacks).
type radixWork struct {
	tmp    []kvEnt
	counts [12][256]uint32
}

// recycle hands the attempt's sort buffer to the runtime for the next
// attempt to fill: by now every buffered pair has been serialized out of the
// arena or the attempt was abandoned, so nothing reads it again.
func (ms *mapState) recycle() {
	if ms.arena != nil {
		ms.rt.sortBufs = append(ms.rt.sortBufs, sortBuf{arena: ms.arena[:0], ents: ms.ents[:0], scratch: ms.scratch[:0], vals: ms.vals[:0]})
		ms.sortBuf = sortBuf{}
	}
}

// radixMinEntries is the size below which filling twelve histograms costs
// more than comparison-sorting the entries.
const radixMinEntries = 64

// sortKVEntries sorts ents by (partition, key, emission order). It is a
// stable LSD radix sort over the twelve key bytes an entry carries — eight
// of prefix, then four of part — with the comparator at the leaves: entries
// are appended in koff order and every pass is stable, so a run of equal
// (part, prefix) comes out in emission order, and only a run whose keys the
// prefix does not determine is handed to compare, whose koff tiebreak gives
// the order a comparison sort of the whole slice would. A digit on which
// every entry agrees is skipped, so a job pays for the key bytes that vary.
func (b *sortBuf) sortKVEntries(w *radixWork) {
	ents := b.ents
	n := len(ents)
	if n < radixMinEntries {
		slices.SortFunc(ents, b.compare)
		return
	}
	counts := &w.counts
	*counts = [12][256]uint32{}
	for _, e := range ents {
		p, q := e.prefix, e.part
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
		counts[8][byte(q)]++
		counts[9][byte(q>>8)]++
		counts[10][byte(q>>16)]++
		counts[11][byte(q>>24)]++
	}
	w.tmp = slices.Grow(w.tmp[:0], n)
	src, dst := ents, w.tmp[:n]
	for d := range counts {
		c := &counts[d]
		if c[src[0].digit(d)] == uint32(n) {
			continue
		}
		var off uint32
		for i, k := range c {
			c[i], off = off, off+k
		}
		for _, e := range src {
			k := e.digit(d)
			dst[c[k]] = e
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
	for i := 0; i < n; {
		// Keys no longer than the prefix are their prefix's first klen bytes:
		// with one klen throughout, the run's keys are identical and stability
		// has already ordered it.
		first, decided := ents[i], ents[i].klen <= 8
		j := i + 1
		for ; j < n && ents[j].part == first.part && ents[j].prefix == first.prefix; j++ {
			decided = decided && ents[j].klen == first.klen
		}
		if !decided && j-i > 1 {
			slices.SortFunc(ents[i:j], b.compare)
		}
		i = j
	}
}

// compare orders two entries by partition, key — reading the arena only
// when the prefixes tie — and emission order, a strict total order.
func (b *sortBuf) compare(x, y kvEnt) int {
	if x.part != y.part {
		return cmp.Compare(x.part, y.part)
	}
	if x.prefix != y.prefix {
		return cmp.Compare(x.prefix, y.prefix)
	}
	if c := bytes.Compare(x.key(b.arena), y.key(b.arena)); c != 0 {
		return c
	}
	return cmp.Compare(x.koff, y.koff)
}

// mapState is the map-side collection buffer and spill machinery.
type mapState struct {
	rt   *Runtime
	job  *Job
	node *cluster.Node
	inc  int // node incarnation at attempt start

	sortBuf
	bufBytes int64

	spillBase  string
	spills     []*spillFile
	spillCount int64

	compressedBytes int64
	spillBytes      int64 // attribution: spill writes
	mergeReadBytes  int64 // attribution: spill re-reads at merge
	mergeWriteBytes int64 // attribution: merged output writes
	combineIn       int64
}

type spillFile struct {
	vol  *localfs.FS
	file *localfs.File
	segs []segment
}

// add buffers one pair, spilling when the sort buffer fills. Hadoop spills
// at 80% occupancy in the background; the synchronous equivalent preserves
// the on-disk outcome (spill count and sizes) that the I/O study sees.
func (ms *mapState) add(p *sim.Proc, part int, k, v []byte) {
	if ms.arena == nil {
		if n := len(ms.rt.sortBufs); n > 0 {
			// A finished attempt's buffer: no fresh arena to zero, and the
			// entry slice is already grown.
			ms.sortBuf, ms.rt.sortBufs = ms.rt.sortBufs[n-1], ms.rt.sortBufs[:n-1]
		} else {
			// Size the arena to the spill threshold once, so buffering does
			// not repeatedly reallocate (growth is a copy of every buffered
			// byte).
			ms.arena = make([]byte, 0, ms.rt.cfg.SortBufBytes+4096)
		}
	}
	// The pair goes in already serialized, so a spill without a combiner
	// copies it out whole. bufBytes keeps Hadoop's accounting (16 bytes of
	// metadata a pair), which bounds the arena from above: New has checked
	// that every offset below the spill threshold fits a uint32.
	ms.arena = binary.AppendUvarint(ms.arena, uint64(len(k)))
	ko := len(ms.arena)
	ms.arena = append(ms.arena, k...)
	ms.arena = binary.AppendUvarint(ms.arena, uint64(len(v)))
	ms.arena = append(ms.arena, v...)
	ms.ents = append(ms.ents, kvEnt{prefix: KeyPrefix(k), koff: uint32(ko), klen: uint32(len(k)), vlen: uint32(len(v)), part: uint32(part)})
	ms.bufBytes += int64(len(k)+len(v)) + 16
	if float64(ms.bufBytes) >= 0.8*float64(ms.rt.cfg.SortBufBytes) {
		ms.spill(p, false)
	}
}

// spill sorts the buffer and writes one spill file with a segment per
// partition (combined and compressed), on the node's next intermediate
// volume; last is finish's call.
func (ms *mapState) spill(p *sim.Proc, last bool) {
	// A zombie must not touch the node's volumes (they may all be failed
	// mid-crash); the attempt is abandoned at the next boundary check.
	if len(ms.ents) == 0 || ms.zombie() {
		return
	}
	cfg := ms.rt.cfg
	ms.node.Compute(p, time.Duration(nCompares(len(ms.ents))*sortNsPerCompare))
	ms.sortKVEntries(&ms.rt.sortWork)
	if ms.zombie() {
		return // the machine died under the sort; see the guard above
	}
	vol := ms.node.NextMRVol()
	f := vol.Create(fmt.Sprintf("%s.spill%d", ms.spillBase, len(ms.spills)))
	f.SetStage(disk.StageSpill)
	sf := &spillFile{vol: vol, file: f}
	keep := !last || len(ms.spills) > 0 // not the map output: the merge reads it
	var off int64
	i := 0
	for part := 0; part < ms.job.NumReduces; part++ {
		j := i
		for j < len(ms.ents) && int(ms.ents[j].part) == part {
			j++
		}
		raw, n := ms.serializePartition(p, ms.ents[i:j])
		i = j
		seg := segment{off: off, records: n}
		if len(raw) > 0 {
			enc := cfg.Codec.Compress(raw)
			ms.node.Compute(p, cfg.Codec.CompressCost(len(raw)))
			switch seg.own = appendRun(p, f, raw, enc); {
			case seg.own != nil: // the file holds raw
			case keep:
				seg.kept = keptRun{enc, raw}
			default:
				ms.rt.runs.put(raw)
			}
			seg.clen = int64(len(enc))
			off += seg.clen
			ms.compressedBytes += seg.clen
			ms.spillBytes += seg.clen
		}
		sf.segs = append(sf.segs, seg)
	}
	ms.spills = append(ms.spills, sf)
	ms.spillCount++
	// Keep the backing arrays: every buffered byte was serialized above, so
	// the next fill can overwrite them instead of reallocating the full sort
	// buffer once per spill.
	ms.arena = ms.arena[:0]
	ms.ents = ms.ents[:0]
	ms.bufBytes = 0
}

// serializePartition runs the combiner (if any) over one partition's sorted
// entries and serializes them into an array from rt.runs, charging
// serialization CPU. The run is the caller's.
func (ms *mapState) serializePartition(p *sim.Proc, ents []kvEnt) (run, int64) {
	if len(ents) == 0 {
		return nil, 0
	}
	var out run
	var n int64
	if comb := ms.job.Combiner; comb != nil {
		buf := ms.scratch[:0]
		emit := func(k, v []byte) {
			buf = AppendKV(buf, k, v)
			n++
		}
		i := 0
		vals := ms.vals
		for i < len(ents) {
			j := i
			vals = vals[:0]
			key := ents[i].key(ms.arena)
			for j < len(ents) && bytes.Equal(ents[j].key(ms.arena), key) {
				vals = append(vals, ents[j].val(ms.arena))
				j++
			}
			ms.combineIn += int64(j - i)
			comb.Reduce(key, vals, emit)
			i = j
		}
		ms.vals, ms.scratch = vals, buf
		out = append(ms.rt.runs.get(len(buf)), buf...)
	} else {
		size := 0
		for _, e := range ents {
			size += len(e.rec(ms.arena))
		}
		out = ms.rt.runs.get(size)
		for _, e := range ents {
			out = append(out, e.rec(ms.arena)...)
		}
		n = int64(len(ents))
	}
	ms.node.Compute(p, time.Duration(serializeNsPerByte*float64(len(out))))
	return out, n
}

// finish flushes the final spill and merges multiple spills into the single
// map output file the shuffle serves, deleting the spills afterwards.
func (ms *mapState) finish(p *sim.Proc, taskIdx int) *mapOutput {
	if ms.zombie() {
		ms.abandon() // the machine died after the last chunk was processed
		return nil
	}
	ms.spill(p, true)
	if ms.zombie() {
		ms.abandon() // the final spill slept through a node bounce
		return nil
	}
	cfg := ms.rt.cfg
	if len(ms.spills) == 0 {
		// Mapper emitted nothing: an empty output with empty segments.
		vol := ms.node.NextMRVol()
		f := vol.Create(ms.spillBase + ".out")
		f.SetStage(disk.StageShuffle)
		return &mapOutput{taskIdx: taskIdx, node: ms.node, inc: ms.inc, vol: vol, file: f, segs: make([]segment, ms.job.NumReduces)}
	}
	if len(ms.spills) == 1 {
		// The lone spill file IS the map output; from here on its reads
		// serve the shuffle, and the runs it kept go back.
		sf := ms.spills[0]
		for i := range sf.segs {
			ms.rt.runs.put(sf.segs[i].kept.raw)
			sf.segs[i].kept = keptRun{}
		}
		sf.file.SetStage(disk.StageShuffle)
		return &mapOutput{taskIdx: taskIdx, node: ms.node, inc: ms.inc, vol: sf.vol, file: sf.file, segs: sf.segs}
	}
	// Multi-spill merge: per partition, read every spill's segment back,
	// decode it (decodeRun), k-way merge, recompress, append to the file.
	vol := ms.node.NextMRVol()
	f := vol.Create(ms.spillBase + ".out")
	f.SetStage(disk.StageMerge)
	for _, sf := range ms.spills {
		sf.file.SetStage(disk.StageMerge)
	}
	segs := make([]segment, 0, ms.job.NumReduces)
	var off int64
	var runs []run
	var from []*segment // runs[i]'s spill segment
	for part := 0; part < ms.job.NumReduces; part++ {
		runs, from = runs[:0], from[:0]
		var records int64
		for _, sf := range ms.spills {
			sg := &sf.segs[part]
			if sg.clen == 0 {
				continue
			}
			enc := sf.file.ReadAt(p, sg.off, sg.clen)
			if ms.zombie() {
				// The node bounced while this read slept; the spill came back
				// crash-truncated and enc is not a complete stream.
				ms.abandon()
				_ = vol.Delete(f.Name())
				return nil
			}
			ms.mergeReadBytes += sg.clen
			raw := decodeRun(cfg.Codec, enc, sg.kept)
			ms.node.Compute(p, cfg.Codec.DecompressCost(len(raw)))
			runs, from = append(runs, raw), append(from, sg)
			records += sg.records
		}
		merged, lone := ms.rt.mergeRuns(runs)
		ms.node.Compute(p, time.Duration(mergeNsPerByte*float64(len(merged))))
		seg := segment{off: off, records: records}
		if len(merged) > 0 {
			enc := cfg.Codec.Compress(merged)
			ms.node.Compute(p, cfg.Codec.CompressCost(len(merged)))
			switch seg.own = appendRun(p, f, merged, enc); {
			case seg.own != nil && lone >= 0: // the file holds the spill's array
				seg.own, from[lone].own = from[lone].own, nil
			case seg.own == nil && lone < 0:
				ms.rt.runs.put(merged)
			}
			seg.clen = int64(len(enc))
			off += seg.clen
			ms.compressedBytes += seg.clen
			ms.mergeWriteBytes += seg.clen
		}
		segs = append(segs, seg)
	}
	for i, sf := range ms.spills {
		if err := sf.vol.Delete(fmt.Sprintf("%s.spill%d", ms.spillBase, i)); err != nil {
			if ms.zombie() {
				continue // the crash already removed this spill
			}
			panic(err)
		}
		for _, sg := range sf.segs {
			ms.rt.giveBack(sg.own)
			ms.rt.runs.put(sg.kept.raw)
		}
	}
	// Merge writes are done; subsequent reads of this handle serve fetchers.
	f.SetStage(disk.StageShuffle)
	return &mapOutput{taskIdx: taskIdx, node: ms.node, inc: ms.inc, vol: vol, file: f, segs: segs}
}
