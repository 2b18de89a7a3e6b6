// Package datagen reproduces the role of BigDataBench 2.1's data generation
// tools: deterministic, seeded generators that produce realistic input for
// each of the paper's four workloads at any volume, preserving the
// characteristics that matter to I/O behaviour (record framing, key
// distributions, compressibility).
//
//   - TeraGen     — 100-byte sort records (10-byte key, 90-byte payload)
//     for TeraSort.
//   - OrderGen    — delimited e-commerce order rows with Zipf-skewed
//     categories for the Hive Aggregation query.
//   - UserGen     — the user dimension table the Join extension joins
//     OrderGen's rows with.
//   - PointGen    — d-dimensional numeric points clustered around k true
//     centers for K-means.
//   - GraphGen    — a power-law web graph (preferential attachment) as an
//     edge list for PageRank, standing in for the Google web graph.
//
// All generators are pure functions of (seed, part, size): the same part is
// byte-identical across runs, so experiments are reproducible and contents
// verifiable.
package datagen

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
)

// RecordSize is the fixed TeraSort record length, as in TeraGen.
const RecordSize = 100

// KeySize is the TeraSort key prefix length.
const KeySize = 10

// TeraGen generates TeraSort input.
type TeraGen struct{ Seed int64 }

// Part returns approximately size bytes of whole 100-byte records for the
// given part index. Keys are uniform random printable bytes, so sort load
// balances, and payloads carry structured filler (compressible, like
// TeraGen's). Parts run from 0 to 2²⁴−1: record i's row id is part<<40 + i
// in 64 bits, so part 2²⁴ would repeat part 0's.
func (g TeraGen) Part(part int, size int64) []byte {
	n := teraRecords(size)
	var c teraCursor
	c.src.seed(g.Seed*1_000_003 + int64(part))
	c.setRow(part, 0)
	out := make([]byte, n*RecordSize)
	c.records(out)
	return out
}

// teraRecords is how many records a part of size bytes holds.
func teraRecords(size int64) int64 { return max(size/RecordSize, 1) }

// A record's layout: the key, a 22-digit row id, then filler split between
// a repeated character and random printable bytes. The mix pins the
// fast-codec compression ratio near the ~2:1 of real GenSort records — an
// all-repetitive filler would overstate compression and erase the
// intermediate-disk pressure the paper measures for TeraSort.
const (
	idEnd   = KeySize + 22 // zero-padded width, as Sprintf("%022d") produced
	fillEnd = idEnd + (RecordSize-idEnd)/2

	// drawsPerRecord is how many printable bytes a record draws.
	drawsPerRecord = KeySize + RecordSize - fillEnd
)

// teraCursor makes a part's records in order, from the source's state at
// the start of record rec.
type teraCursor struct {
	src lagged
	rec int64
	id  [idEnd - KeySize]byte // part<<40 + rec, counted up in place
}

// setRow positions the row id at record rec of part.
func (c *teraCursor) setRow(part int, rec int64) {
	c.rec = rec
	for k, v := len(c.id)-1, uint64(int64(part)<<40+rec); k >= 0; k-- {
		c.id[k] = byte('0' + v%10)
		v /= 10
	}
}

// fills are the filler rows: record i repeats 'A' + i%26.
var fills = func() (f [26][fillEnd - idEnd]byte) {
	for i := range f {
		for k := range f[i] {
			f[i][k] = byte('A' + i)
		}
	}
	return f
}()

// drawBatch is how many records' random bytes records draws in one
// printable call.
const drawBatch = 64

// records writes records c.rec, c.rec+1, … to dst, a whole number of
// records, and moves past them. A record's 44 random bytes are its key and
// its tail, drawn in that order, so a batch of records draws them all in
// one printable call and lays them out after.
func (c *teraCursor) records(dst []byte) {
	var draws [drawBatch * drawsPerRecord]byte
	for len(dst) > 0 {
		n := min(len(dst)/RecordSize, drawBatch)
		c.src.printable(draws[:n*drawsPerRecord])
		for i, d := 0, draws[:]; i < n; i, d = i+1, d[drawsPerRecord:] {
			// Fixed-size array moves, which compile to a few loads and
			// stores each instead of memmove calls.
			rec := dst[i*RecordSize : (i+1)*RecordSize]
			*(*[KeySize]byte)(rec) = [KeySize]byte(d)
			*(*[idEnd - KeySize]byte)(rec[KeySize:]) = c.id
			*(*[fillEnd - idEnd]byte)(rec[idEnd:]) = fills[c.rec%26]
			*(*[RecordSize - fillEnd]byte)(rec[fillEnd:]) = [RecordSize - fillEnd]byte(d[KeySize:])
			k := len(c.id) - 1
			for ; c.id[k] == '9'; k-- {
				c.id[k] = '0'
			}
			c.id[k]++
			c.rec++
		}
		dst = dst[n*RecordSize:]
	}
}

// stripeRecords is the distance between a TeraTable's snapshots: about
// 1 MiB of records.
const stripeRecords = 1 << 20 / RecordSize

// TeraTable is what a TeraGen part keeps resident when its bytes are made
// where they are read: the lagged source's state at the start of every
// stripe (4,864 bytes each). Any byte range of the part is regenerated from
// the snapshot before it, byte for byte as Part makes it. A table is never
// written after Table returns, so testbeds running in parallel share one.
type TeraTable struct {
	part   int
	n      int64    // records
	stripe int64    // records between snapshots: stripeRecords
	snaps  []lagged // snaps[s] is the state at record s·stripe
}

// Table runs the snapshot pass of Part(part, size): the part's lagged
// outputs are drawn once, without being turned into bytes, and the state at
// each stripe's first record is kept.
func (g TeraGen) Table(part int, size int64) *TeraTable { return g.table(part, size, stripeRecords) }

// table is Table with stripe records between snapshots.
func (g TeraGen) table(part int, size, stripe int64) *TeraTable {
	n := teraRecords(size)
	t := &TeraTable{part: part, n: n, stripe: stripe, snaps: make([]lagged, (n+stripe-1)/stripe)}
	t.snaps[0].seed(g.Seed*1_000_003 + int64(part))
	for s := 1; s < len(t.snaps); s++ {
		t.snaps[s] = t.snaps[s-1]
		t.snaps[s].skip(stripe * drawsPerRecord)
	}
	return t
}

// Size is the part's length in bytes.
func (t *TeraTable) Size() int64 { return t.n * RecordSize }

// Reader returns a reader of the part with no place in it yet. A reader is
// not safe for concurrent use; the table under it is.
func (t *TeraTable) Reader() *TeraReader { return &TeraReader{t: t} }

// maxCursors bounds a reader's places in a part: a testbed runs fewer maps
// on one part at once.
const maxCursors = 16

// TeraReader makes byte ranges of a TeraTable's part. It keeps up to
// maxCursors places in the part and regenerates from the record holding a
// read's first byte, going on from the place nearest at or before it in the
// same stripe, or from the stripe's snapshot, so interleaved sequential
// readers (a testbed's maps, each on its own block, and a map's read that
// runs into the next block) each make their records once.
type TeraReader struct {
	t     *TeraTable
	ws    []*teraWindow
	clock int64 // reads so far, which date each place's last use
}

// AppendTo appends bytes [lo, hi) of the part to dst (0 ≤ lo ≤ hi ≤
// Size()).
func (r *TeraReader) AppendTo(dst []byte, lo, hi int64) []byte {
	if lo >= hi {
		return dst
	}
	w := r.pick(lo / RecordSize)
	r.clock++
	w.used = r.clock
	return w.appendTo(dst, lo, hi)
}

// pick returns the place that reaches record rec most cheaply: one whose
// last record made is rec, else the nearest at or before rec and not
// before its stripe's snapshot, else a new one, or past maxCursors the one
// used least recently.
func (r *TeraReader) pick(rec int64) *teraWindow {
	var near, old *teraWindow
	for _, w := range r.ws {
		if w.made && w.c.rec-1 == rec {
			return w
		}
		if w.c.rec <= rec && w.c.rec >= rec/r.t.stripe*r.t.stripe && (near == nil || w.c.rec > near.c.rec) {
			near = w
		}
		if old == nil || w.used < old.used {
			old = w
		}
	}
	switch {
	case near != nil:
		return near
	case len(r.ws) < maxCursors:
		w := &teraWindow{t: r.t}
		w.c.src = r.t.snaps[0]
		w.c.setRow(r.t.part, 0)
		r.ws = append(r.ws, w)
		return w
	}
	return old
}

// teraWindow is one place of a TeraTable reader: the cursor, and the record
// it made last, which the next read starts inside when a read ends
// mid-record.
type teraWindow struct {
	t    *TeraTable
	c    teraCursor
	last [RecordSize]byte // record c.rec−1, when made is set
	made bool
	used int64 // the reader's clock at this place's last read
}

func (w *teraWindow) appendTo(dst []byte, lo, hi int64) []byte {
	if lo >= hi {
		return dst
	}
	if r := lo / RecordSize; w.made && r == w.c.rec-1 {
		end := min(hi, w.c.rec*RecordSize)
		dst = append(dst, w.last[lo-r*RecordSize:end-r*RecordSize]...)
		if lo = end; lo == hi {
			return dst
		}
	}
	w.seek(lo / RecordSize)
	if head := lo % RecordSize; head != 0 || hi-lo < RecordSize {
		w.c.records(w.last[:])
		dst = append(dst, w.last[head:min(RecordSize, head+hi-lo)]...)
		lo += min(RecordSize-head, hi-lo)
	}
	if whole := (hi - lo) / RecordSize; whole > 0 {
		n := len(dst)
		dst = slices.Grow(dst, int(whole*RecordSize))[:n+int(whole*RecordSize)]
		w.c.records(dst[n:])
		copy(w.last[:], dst[len(dst)-RecordSize:])
		lo += whole * RecordSize
	}
	if lo < hi {
		w.c.records(w.last[:])
		dst = append(dst, w.last[:hi-lo]...)
	}
	w.made = true
	return dst
}

// seek positions the cursor at record r: onward from where it stands when
// that is in r's stripe and not past r, from the stripe's snapshot
// otherwise.
func (w *teraWindow) seek(r int64) {
	if r == w.c.rec {
		return
	}
	if s := r / w.t.stripe; w.c.rec > r || w.c.rec < s*w.t.stripe {
		w.c.src, w.c.rec = w.t.snaps[s], s*w.t.stripe
	}
	w.c.src.skip((r - w.c.rec) * drawsPerRecord)
	w.c.setRow(w.t.part, r)
	w.made = false
}

// lagged is math/rand's default source without its interface: the additive
// lagged Fibonacci generator x[n] = x[n−607] + x[n−273] mod 2⁶⁴, continued
// a window of 607 outputs at a time from the source's first 607.
type lagged struct {
	w     [607]uint64 // the next outputs, in order
	i     int         // how many of w are drawn
	clean bool        // known: no output in w is above Int31n's rejection bound
}

// bound is Int31n(95)'s rejection bound: an output whose bits 32–62 exceed
// it makes no byte, and the next output is drawn instead.
const bound = 1<<31 - 1 - (1<<31)%95

func (r *lagged) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	r.clean = true
	for k := range r.w {
		r.w[k] = src.Uint64()
		r.clean = r.clean && !redrawn(r.w[k])
	}
}

// redrawn is whether Int31n draws again after output x.
func redrawn(x uint64) bool { return uint32(x>>32)&(1<<31-1) > bound }

// vector is whether printable and refill run the AVX2 kernel
// (lagged_amd64.s), set once at init where the CPU has it. The Go loops
// are the path everywhere else and the reference the kernel is tested
// against; tests switch between the two here.
var vector = hasAVX2

// refill replaces the window x[m..m+607) with x[m+607..m+1214): the first
// 273 add an output of the old window, the rest one just written. The same
// pass notes whether the new window is clean, so skip can step over it
// whole.
func (r *lagged) refill() {
	if vector {
		a := addLagged(r.w[:273], r.w[334:])
		r.clean = !addLagged(r.w[273:], r.w[:334]) && !a
	} else {
		var v uint32 // bit 31 set once some bits 32–62 exceed bound: v+3 ≥ 2³¹
		for k := 0; k < 273; k++ {
			r.w[k] += r.w[k+334]
			v |= uint32(r.w[k]>>32)&(1<<31-1) + (1<<31 - 1 - bound)
		}
		for k := 273; k < 607; k++ {
			r.w[k] += r.w[k-273]
			v |= uint32(r.w[k]>>32)&(1<<31-1) + (1<<31 - 1 - bound)
		}
		r.clean = v>>31 == 0
	}
	r.i = 0
}

// printable fills dst with the bytes ' '+rand.New(src).Intn(95) would (44 of
// every 100 TeraGen bytes): Intn → Int31n takes bits 32–62 of an output,
// draws again above its rejection bound and returns the value mod 95.
func (r *lagged) printable(dst []byte) {
	const n = 95
	for len(dst) > 0 {
		if r.i == len(r.w) {
			r.refill()
		}
		w := r.w[r.i:min(len(r.w), r.i+len(dst))]
		j := 0
		if vector {
			j = printable8(dst, w)
		}
		for ; j < len(w); j++ {
			v := uint32(w[j]>>32) & (1<<31 - 1)
			if v > bound { // Int31n draws again: this output makes no byte
				r.i++
				break
			}
			dst[j] = byte(' ' + v%n)
		}
		r.i, dst = r.i+j, dst[j:]
	}
}

// skip moves past d printable draws without making their bytes: where
// printable(make([]byte, d)) would leave the stream. A window known clean
// is stepped over whole; any other is walked output by output.
func (r *lagged) skip(d int64) {
	for d > 0 {
		if r.i == len(r.w) {
			r.refill()
		}
		if r.clean {
			k := int(min(int64(len(r.w)-r.i), d))
			r.i, d = r.i+k, d-int64(k)
			continue
		}
		for ; r.i < len(r.w) && d > 0; r.i++ {
			if !redrawn(r.w[r.i]) {
				d--
			}
		}
	}
}

// Key returns the sort key of the record starting at off.
func Key(data []byte, off int) []byte { return data[off : off+KeySize] }

// users is the user universe: OrderGen draws its user ids from [0, users)
// and UserGen writes one row per id.
const users = 100_000

// categories is the number of distinct group-by keys OrderGen draws.
const categories = 1000

// OrderGen generates the Hive Aggregation table: one order item per line,
// "order|user|item|category|price|quantity". Categories follow a Zipf
// distribution — aggregation output is much smaller than its input, as with
// the paper's OLAP query.
type OrderGen struct {
	Seed int64
}

// Part returns approximately size bytes of whole order lines.
func (g OrderGen) Part(part int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.Seed*7_368_787 + int64(part)))
	zipf := rand.NewZipf(rng, 1.2, 1, categories-1)
	out := make([]byte, 0, size+128)
	order := int64(part) << 36
	for int64(len(out)) < size {
		order++
		user := rng.Intn(users)
		item := rng.Intn(1_000_000)
		cat := zipf.Uint64()
		price := rng.Intn(9900) + 100 // cents
		qty := rng.Intn(9) + 1
		out = strconv.AppendInt(out, order, 10)
		out = append(out, '|')
		out = strconv.AppendInt(out, int64(user), 10)
		out = append(out, '|')
		out = strconv.AppendInt(out, int64(item), 10)
		out = append(out, '|')
		out = append(out, "cat-"...)
		out = strconv.AppendUint(out, cat, 10)
		out = append(out, '|')
		out = strconv.AppendInt(out, int64(price), 10)
		out = append(out, '|')
		out = strconv.AppendInt(out, int64(qty), 10)
		out = append(out, '\n')
	}
	return out
}

// UserGen generates the dimension table for the Join query: one user per
// line, "user|name|region". User ids are dense in [0, users), matching the
// uniform user draw of OrderGen, so a fact⋈dimension equi-join on user id
// has realistic hit rates.
type UserGen struct {
	Seed int64
}

// Part returns approximately size bytes of whole user lines: consecutive
// ids from part*7919 mod users, wrapping at users. Parts are not a
// partition of the ids: two parts whose runs overlap both carry the ids in
// common (4,727 at core's test scale), each with its own region, so a join
// meets duplicate dimension rows. ROADMAP item 16(b) gives each id one row.
func (g UserGen) Part(part int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.Seed*65_537 + int64(part)))
	regions := []string{"north", "south", "east", "west", "central"}
	out := make([]byte, 0, size+128)
	id := part * 7919 % users
	for int64(len(out)) < size {
		out = strconv.AppendInt(out, int64(id), 10)
		out = append(out, '|')
		out = append(out, "user-"...)
		out = strconv.AppendInt(out, int64(id), 10)
		out = append(out, '|')
		out = append(out, regions[rng.Intn(len(regions))]...)
		out = append(out, '\n')
		id = (id + 1) % users
	}
	return out
}

// PointDims is the dimensionality of PointGen's points; trueCenters is the
// number of cluster centers they are drawn around.
const (
	PointDims   = 8
	trueCenters = 16
)

// PointGen generates K-means input: one point per line, comma-separated
// float coordinates, drawn around trueCenters cluster centers.
type PointGen struct {
	Seed int64
}

// Part returns approximately size bytes of whole point lines.
func (g PointGen) Part(part int, size int64) []byte {
	// Centers are derived from the seed only, identical across parts.
	crng := rand.New(rand.NewSource(g.Seed * 31))
	centers := make([][]float64, trueCenters)
	for i := range centers {
		centers[i] = make([]float64, PointDims)
		for d := range centers[i] {
			centers[i][d] = crng.Float64() * 1000
		}
	}
	rng := rand.New(rand.NewSource(g.Seed*104_729 + int64(part)))
	out := make([]byte, 0, size+256)
	for int64(len(out)) < size {
		c := centers[rng.Intn(trueCenters)]
		for d := 0; d < PointDims; d++ {
			if d > 0 {
				out = append(out, ',')
			}
			v := c[d] + rng.NormFloat64()*25
			out = appendFixed3(out, v)
		}
		out = append(out, '\n')
	}
	return out
}

// appendFixed3 appends v byte for byte as strconv.AppendFloat(dst, v, 'f',
// 3, 64) does, without the arbitrary-precision conversion strconv falls back
// to for a fixed 'f' precision. For 1 ≤ |v| < 1e9 the float64 product
// |v|·1000 is below 2^40, so it lies within 2^-14 (6.2e-5) of the exact
// product; when its fraction is at least 1e-3 away from one half, the exact
// product rounds to the same integer, and that integer's digits are the
// output. Ties, their neighbourhoods and every other v go to strconv.
func appendFixed3(dst []byte, v float64) []byte {
	if a := math.Abs(v); a >= 1 && a < 1e9 {
		p := a * 1000
		n := uint64(p)
		if frac := p - float64(n); math.Abs(frac-0.5) >= 1e-3 {
			if frac > 0.5 {
				n++
			}
			if v < 0 {
				dst = append(dst, '-')
			}
			dst = strconv.AppendUint(dst, n/1000, 10)
			m := n % 1000
			return append(dst, '.', byte('0'+m/100), byte('0'+m/10%10), byte('0'+m%10))
		}
	}
	return strconv.AppendFloat(dst, v, 'f', 3, 64)
}

// GraphGen generates PageRank input: a power-law directed graph as
// "src\tdst" edge lines, built by preferential attachment so in-degree
// follows the heavy-tailed distribution of real web graphs.
type GraphGen struct {
	Seed int64
}

// outDegree is GraphGen's edges per new vertex.
const outDegree = 8

// Part returns approximately size bytes of whole edge lines. Vertices are
// globally numbered per part (part-disjoint subgraphs, as a crawler shard
// would produce), which keeps generation parallel and deterministic.
func (g GraphGen) Part(part int, size int64) []byte {
	rng := rand.New(rand.NewSource(g.Seed*179_424_673 + int64(part)))
	base := int64(part) << 32
	out := make([]byte, 0, size+256)
	// Preferential attachment over a growing target multiset.
	targets := []int64{base, base + 1}
	next := base + 2
	appendEdge := func(src, dst int64) {
		out = strconv.AppendInt(out, src, 10)
		out = append(out, '\t')
		out = strconv.AppendInt(out, dst, 10)
		out = append(out, '\n')
	}
	appendEdge(base, base+1)
	for int64(len(out)) < size {
		src := next
		next++
		for e := 0; e < outDegree; e++ {
			var dst int64
			if rng.Intn(10) == 0 {
				dst = base + rng.Int63n(next-base) // uniform exploration
			} else {
				dst = targets[rng.Intn(len(targets))] // preferential
			}
			if dst == src {
				continue
			}
			appendEdge(src, dst)
			targets = append(targets, dst)
		}
		targets = append(targets, src)
		// Bound the multiset so memory stays O(recent window).
		if len(targets) > 1<<16 {
			targets = targets[len(targets)-1<<15:]
		}
	}
	return out
}

// Lines iterates newline-terminated records in data, calling fn with each
// line (without the newline). A trailing unterminated fragment is ignored,
// matching how the MapReduce input format treats split boundaries.
func Lines(data []byte, fn func(line []byte)) {
	start := 0
	for i, b := range data {
		if b == '\n' {
			fn(data[start:i])
			start = i + 1
		}
	}
}
