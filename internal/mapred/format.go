package mapred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

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
// run is returned as it is (read-only, like the inputs). Otherwise each
// winning pair's wire bytes are copied, not re-encoded, into a buffer from
// rt.mergeBufs and pooled is true: the caller owes a recycleMerged.
func (rt *Runtime) mergeRuns(runs []run) (merged run, pooled bool) {
	m := newMerger(runs)
	switch len(m.cs) {
	case 0:
		return nil, false
	case 1:
		return m.cs[0].run, false
	}
	var out run
	if n := len(rt.mergeBufs); n > 0 {
		out, rt.mergeBufs = rt.mergeBufs[n-1], rt.mergeBufs[:n-1]
	}
	if cap(out) < m.total {
		out = make(run, 0, m.total)
	}
	for c := m.top(); c != nil; c = m.next() {
		out = append(out, c.run[c.pos:c.end]...)
	}
	return out, true
}

// recycleMerged puts what is left of a pooled mergeRuns result (see
// appendRun) back for the next merge to overwrite. Call it once nothing
// reads merged any more.
func (rt *Runtime) recycleMerged(merged run, pooled bool) {
	if pooled && merged != nil {
		rt.mergeBufs = append(rt.mergeBufs, merged[:0])
	}
}

// appendRun appends enc, the codec's output for raw, to f, which keeps what
// it is given, and returns what is still the caller's of raw. So the codec's
// own result is stored as it is. If enc is raw itself — compression off,
// compress.Identity returns its argument — a full buffer is given away (nil
// is returned); one with spare capacity is a recycled scratch the next run
// will overwrite, so the file gets a copy and the buffer stays the caller's.
func appendRun(p *sim.Proc, f *localfs.File, raw run, enc []byte) run {
	if len(raw) > 0 && len(enc) > 0 && &enc[0] == &raw[0] {
		if cap(raw) == len(raw) {
			raw = nil
		} else {
			enc = bytes.Clone(enc)
		}
	}
	f.Append(p, enc)
	return raw
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

// feed appends one chunk and emits every complete owned record in it.
func (f *framer) feed(chunk []byte, fn func(rec []byte)) {
	if f.done {
		return
	}
	f.pending = append(f.pending, chunk...)
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
// data, or ok=false if data holds only a partial pair.
func kvLen(data []byte) (int, bool) {
	kl, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, false
	}
	pos := n + int(kl)
	if pos > len(data) {
		return 0, false
	}
	vl, m := binary.Uvarint(data[pos:])
	if m <= 0 {
		return 0, false
	}
	pos += m + int(vl)
	if pos > len(data) {
		return 0, false
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
