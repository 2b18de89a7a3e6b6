package mapred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"iochar/internal/compress"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// AppendKV serializes one pair as uvarint-length-prefixed key and value —
// the on-disk and on-wire intermediate format.
func AppendKV(dst, key, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, value...)
	return dst
}

// NextKV deserializes the pair at the head of src, returning the key, the
// value, and the remainder. It panics on corruption — in a simulation that
// is a bug, not an I/O error.
func NextKV(src []byte) (key, value, rest []byte) {
	kl, n := binary.Uvarint(src)
	if n <= 0 {
		panic("mapred: corrupt KV stream (key length)")
	}
	src = src[n:]
	key = src[:kl]
	src = src[kl:]
	vl, n := binary.Uvarint(src)
	if n <= 0 {
		panic("mapred: corrupt KV stream (value length)")
	}
	src = src[n:]
	value = src[:vl]
	return key, value, src[vl:]
}

// run is a sorted serialized KV stream.
type run []byte

// cursor is a merger's position in one run: the pair at the head, decoded.
type cursor struct {
	prefix   uint64 // KeyPrefix(key), math.MaxUint64 once done
	done     bool   // the run is exhausted
	key, val []byte // views into run
	run      run
	pos, end int // run[pos:end] is the head pair in wire form
}

// load decodes the pair after the current one; false, and done, at the end of
// the run. One-byte lengths are decoded inline; any other pair, a truncated
// one too, is NextKV's.
func (c *cursor) load() bool {
	if c.end == len(c.run) {
		c.prefix, c.done = math.MaxUint64, true
		return false
	}
	c.pos = c.end
	r := c.run[c.pos:]
	if kl := int(r[0]); kl < 0x80 && kl+1 < len(r) && r[kl+1] < 0x80 && kl+2+int(r[kl+1]) <= len(r) {
		c.key, c.val = r[1:1+kl], r[kl+2:kl+2+int(r[kl+1])]
		c.end += kl + 2 + len(c.val)
	} else {
		var rest []byte
		c.key, c.val, rest = NextKV(r)
		c.end = len(c.run) - len(rest)
	}
	c.prefix = KeyPrefix(c.key)
	return true
}

// merger streams the k-way merge of sorted runs: a tournament tree of losers
// over cursors ordered by (prefix, key, run index). The run index is the tie
// rule — of equal keys the earlier run's pair comes first, and within a run
// pairs keep their order — so the merged order is a function of the runs
// alone. Each node caches its loser's prefix, so replaying the winner's path
// compares one uint64 per level and reads keys only on a prefix tie; a done
// cursor has the largest prefix, and a live key with that prefix beats it on
// the tie. It only reads the runs, and never writes to the slice that holds
// them.
type merger struct {
	cs []cursor
	// tree[0] is the winner, tree[n] the loser at node n (children 2n and
	// 2n+1) for 0 < n < len(cs); cursor i is leaf len(cs)+i.
	tree  []node
	total int // summed run lengths, the size of the merged stream
}

type node struct {
	prefix uint64
	i      int // index into cs
}

func newMerger(runs []run) *merger {
	m := &merger{cs: make([]cursor, 0, len(runs))}
	for _, r := range runs {
		if len(r) > 0 {
			m.total += len(r)
			m.cs = append(m.cs, cursor{run: r})
			m.cs[len(m.cs)-1].load()
		}
	}
	m.tree = make([]node, len(m.cs))
	if len(m.cs) > 0 {
		m.tree[0].i = m.play(1)
	}
	return m
}

// play fills in the losers under node n and returns the winner there.
func (m *merger) play(n int) int {
	if n >= len(m.cs) {
		return n - len(m.cs)
	}
	w, l := m.play(2*n), m.play(2*n+1)
	if m.less(l, w) {
		w, l = l, w
	}
	m.tree[n] = node{m.cs[l].prefix, l}
	return w
}

// less orders cursors by (prefix, key, run index), done ones last.
func (m *merger) less(a, b int) bool {
	ca, cb := &m.cs[a], &m.cs[b]
	if ca.prefix != cb.prefix {
		return ca.prefix < cb.prefix
	}
	if ca.done != cb.done {
		return cb.done
	}
	if c := bytes.Compare(ca.key, cb.key); c != 0 {
		return c < 0
	}
	return a < b
}

// top returns the cursor holding the smallest pair not yet consumed, nil
// when every run is exhausted. Its fields are good until the next call of
// next.
func (m *merger) top() *cursor {
	if len(m.cs) == 0 || m.cs[m.tree[0].i].done {
		return nil
	}
	return &m.cs[m.tree[0].i]
}

// next consumes the top pair and returns the new top.
func (m *merger) next() *cursor {
	w := m.tree[0].i
	m.cs[w].load()
	p := m.cs[w].prefix
	for n := (w + len(m.cs)) >> 1; n > 0; n >>= 1 {
		lose, win := m.tree[n], node{p, w}
		if lose.prefix == p { // apart from ties, the swap compiles to selects
			if m.less(lose.i, w) {
				lose, win = win, lose
			}
		} else if lose.prefix < p {
			lose, win = win, lose
		}
		m.tree[n] = lose
		w, p = win.i, win.prefix
	}
	m.tree[0].i = w
	return m.top()
}

// groups invokes fn once per distinct key of the merged stream with all its
// values (views into the runs; fn must not retain them).
func (m *merger) groups(fn func(key []byte, values [][]byte)) {
	var curKey []byte
	var vals [][]byte
	for c := m.top(); c != nil; c = m.next() {
		if curKey == nil || !bytes.Equal(c.key, curKey) {
			if curKey != nil {
				fn(curKey, vals)
			}
			curKey = c.key
			vals = vals[:0]
		}
		vals = append(vals, c.val)
	}
	if curKey != nil {
		fn(curKey, vals)
	}
}

// mergeRuns materializes the k-way merge of sorted runs. A lone non-empty
// run is returned as it is (read-only, like the inputs) with its index as
// lone. Otherwise lone is -1 and each winning pair's wire bytes are copied,
// not re-encoded, into an array from rt.runs that is the caller's.
func (rt *Runtime) mergeRuns(runs []run) (merged run, lone int) {
	m := newMerger(runs)
	switch len(m.cs) {
	case 0:
		return nil, -1
	case 1:
		return m.cs[0].run, slices.IndexFunc(runs, func(r run) bool { return len(r) > 0 })
	}
	out := rt.runs.get(m.total)
	for c := m.top(); c != nil; c = m.next() {
		out = append(out, c.run[c.pos:c.end]...)
	}
	return out, -1
}

// runList is the runtime's bounded best-fit free list of run arrays. A
// spill's partition and a materialized merge take the smallest free array
// that holds them, so once earlier runs' arrays have come back neither
// allocates nor zeroes its output. An array comes back when nothing reads
// it any more: one the task kept to itself (a run it compressed, a kept
// run) after its last use, and one it gave a private localfs file (see
// segment.own) once the run's last reader is done, never under a fault plan.
type runList struct {
	free []run
	// onPut, a test switch, sees each array that comes back and keeps it
	// from the list by returning false.
	onPut func(run) bool
}

// maxFreeRuns bounds the list. When an array comes back to a full one the
// smallest of them is left to the collector: a large array can hold any
// run, a small one only small ones.
const maxFreeRuns = 64

// get returns an empty run with room for n bytes: the smallest free array
// that fits, or a new one of exactly n.
func (l *runList) get(n int) run {
	i := sort.Search(len(l.free), func(i int) bool { return cap(l.free[i]) >= n })
	if i == len(l.free) {
		return make(run, 0, n)
	}
	r := l.free[i]
	l.free = slices.Delete(l.free, i, i+1)
	return r[:0]
}

// put gives r's array back for a later get to overwrite; nothing may read r
// afterwards. The list is kept in order of capacity.
func (l *runList) put(r run) {
	if cap(r) == 0 || (l.onPut != nil && !l.onPut(r)) {
		return
	}
	i := sort.Search(len(l.free), func(i int) bool { return cap(l.free[i]) >= cap(r) })
	if l.free = slices.Insert(l.free, i, r[:0]); len(l.free) > maxFreeRuns {
		l.free = slices.Delete(l.free, 0, 1)
	}
}

// giveBack puts back arrays that private localfs files were given, once the
// last reader of their runs is done. Under a fault plan nothing comes back:
// re-fetches, zombie attempts and crash truncation keep views of them alive.
func (rt *Runtime) giveBack(arrays ...run) {
	if rt.faulty {
		return
	}
	for _, r := range arrays {
		rt.runs.put(r)
	}
}

// appendRun appends enc, the codec's output for raw, to f, which keeps what
// it is given, so the codec's own result is stored as it is. It returns the
// array of the caller's that f now holds: raw if enc is raw itself
// (compression off: compress.Identity returns its argument), which the
// caller records as the file's (segment.own), and nil otherwise, when raw
// stays the caller's.
func appendRun(p *sim.Proc, f *localfs.File, raw run, enc []byte) run {
	f.Append(p, enc)
	if len(raw) > 0 && len(enc) > 0 && &enc[0] == &raw[0] {
		return raw
	}
	return nil
}

// keptRun is a run a task stored as enc, an array the codec made, kept
// beside raw, the run it encodes, for the task's own read-back of it.
type keptRun struct{ enc, raw []byte }

// decodeRun returns what got, a read-back of k, decodes to: k.raw only if got
// is the stored slice itself, not Corrupt's copy, a gathered or a cut read.
func decodeRun(c compress.Codec, got []byte, k keptRun) run {
	if len(k.raw) > 0 && len(got) == len(k.enc) && &got[0] == &k.enc[0] {
		return k.raw
	}
	return c.Decompress(got)
}

// recordIter produces record boundaries for a split under a RecordFormat.
//
// Hadoop semantics are preserved for both formats:
//   - lines: skip a partial first line (unless offset 0); consume past the
//     split end to finish the final line.
//   - fixed: the split owns records whose first byte lies inside it.
type recordIter struct {
	format   RecordFormat
	splitOff int64
	splitLen int64
	fileSize int64
}

// ranges returns the byte range of the file this split must actually read:
// for lines, up to one extra record's worth past the end. maxRecord bounds
// the overread window.
const maxLineOverread = 64 << 10

func (it recordIter) readRange() (off, length int64) {
	switch f := it.format.(type) {
	case FixedFormat:
		rs := int64(f.Size)
		first := (it.splitOff + rs - 1) / rs * rs
		afterLast := min((it.splitOff+it.splitLen+rs-1)/rs*rs, it.fileSize)
		if first >= afterLast {
			return 0, 0
		}
		return first, afterLast - first
	case LineFormat:
		end := min(it.splitOff+it.splitLen+maxLineOverread, it.fileSize)
		return it.splitOff, end - it.splitOff
	case KVFormat:
		return 0, it.fileSize // whole-file split
	default:
		panic(fmt.Sprintf("mapred: unknown record format %T", it.format))
	}
}

// framer incrementally frames records from chunks of the readRange, so map
// tasks interleave disk reads with record processing exactly as Hadoop's
// record readers do (one buffer ahead), instead of slurping the whole split
// before computing.
type framer struct {
	it          recordIter
	pending     []byte
	relPos      int64 // file-relative position of pending[0] minus readRange start
	skippedHead bool
	done        bool // past the split's last owned record (LineFormat)
}

func newFramer(it recordIter) *framer {
	return &framer{it: it, skippedHead: it.splitOff == 0}
}

// frame emits every complete owned record in pending, which the caller
// appends each chunk to (a map reads straight into it).
func (f *framer) frame(fn func(rec []byte)) {
	if f.done {
		return
	}
	switch fmtv := f.it.format.(type) {
	case FixedFormat:
		n := len(f.pending) / fmtv.Size * fmtv.Size
		for off := 0; off < n; off += fmtv.Size {
			fn(f.pending[off : off+fmtv.Size])
		}
		f.consume(n)
	case LineFormat:
		if !f.skippedHead {
			i := bytes.IndexByte(f.pending, '\n')
			if i < 0 {
				return // keep accumulating the foreign partial line
			}
			f.consume(i + 1)
			f.skippedHead = true
		}
		limit := f.it.splitLen // owned lines start at relative pos <= splitLen
		// Walk complete lines by offset and consume once at the end — a
		// copy-down per record would be quadratic in the chunk size.
		off := 0
		for {
			if f.relPos+int64(off) > limit {
				f.done = true
				f.pending = nil
				return
			}
			i := bytes.IndexByte(f.pending[off:], '\n')
			if i < 0 {
				break
			}
			fn(f.pending[off : off+i])
			off += i + 1
		}
		f.consume(off)
	case KVFormat:
		off := 0
		for {
			n, ok := kvLen(f.pending[off:])
			if !ok {
				break
			}
			fn(f.pending[off : off+n])
			off += n
		}
		f.consume(off)
	default:
		panic(fmt.Sprintf("mapred: unknown record format %T", f.it.format))
	}
}

// consume drops n framed bytes from the head of pending.
func (f *framer) consume(n int) {
	f.relPos += int64(n)
	// Copy down rather than re-slice so the backing array does not pin the
	// whole history of chunks.
	f.pending = append(f.pending[:0], f.pending[n:]...)
}

// kvLen returns the byte length of the complete KV pair at the head of
// data, or ok=false if data holds only a partial pair. Lengths are compared
// as uint64, so a corrupt one too large for an int reads as a partial pair.
func kvLen(data []byte) (int, bool) {
	pos := 0
	for range 2 {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return 0, false
		}
		pos += n + int(l)
	}
	return pos, true
}

// nCompares estimates comparisons for sorting n items (n log2 n).
func nCompares(n int) float64 {
	if n < 2 {
		return 0
	}
	log := 0.0
	for m := n; m > 1; m >>= 1 {
		log++
	}
	return float64(n) * log
}
