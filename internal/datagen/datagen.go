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
	n := size / RecordSize
	if n == 0 {
		n = 1
	}
	var src lagged
	src.seed(g.Seed*1_000_003 + int64(part))
	out := make([]byte, n*RecordSize)
	// Payload: 22-digit row id, then filler split between a repeated
	// character and random printable bytes. The mix pins the fast-codec
	// compression ratio near the ~2:1 of real GenSort records — an
	// all-repetitive filler would overstate compression and erase the
	// intermediate-disk pressure the paper measures for TeraSort.
	const idEnd = KeySize + 22 // zero-padded width, as Sprintf("%022d") produced
	const fillEnd = idEnd + (RecordSize-idEnd)/2
	var id [idEnd - KeySize]byte // part<<40 + i, counted up in place
	for k, v := len(id)-1, uint64(int64(part)<<40); k >= 0; k-- {
		id[k] = byte('0' + v%10)
		v /= 10
	}
	for i := int64(0); i < n; i++ {
		rec := out[i*RecordSize : (i+1)*RecordSize]
		src.printable(rec[:KeySize])
		copy(rec[KeySize:idEnd], id[:])
		k := len(id) - 1
		for ; id[k] == '9'; k-- {
			id[k] = '0'
		}
		id[k]++
		fill := byte('A' + i%26)
		for k := idEnd; k < fillEnd; k++ {
			rec[k] = fill
		}
		src.printable(rec[fillEnd:])
	}
	return out
}

// lagged is math/rand's default source without its interface: the additive
// lagged Fibonacci generator x[n] = x[n−607] + x[n−273] mod 2⁶⁴, continued
// a window of 607 outputs at a time from the source's first 607.
type lagged struct {
	w [607]uint64 // the next outputs, in order
	i int         // how many of w are drawn
}

func (r *lagged) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := range r.w {
		r.w[k] = src.Uint64()
	}
}

// vector is whether printable and refill run the AVX2 kernel
// (lagged_amd64.s), set once at init where the CPU has it. The Go loops
// are the path everywhere else and the reference the kernel is tested
// against; tests switch between the two here.
var vector = hasAVX2

// refill replaces the window x[m..m+607) with x[m+607..m+1214): the first
// 273 add an output of the old window, the rest one just written.
func (r *lagged) refill() {
	if vector {
		addLagged(r.w[:273], r.w[334:])
		addLagged(r.w[273:], r.w[:334])
	} else {
		for k := 0; k < 273; k++ {
			r.w[k] += r.w[k+334]
		}
		for k := 273; k < 607; k++ {
			r.w[k] += r.w[k-273]
		}
	}
	r.i = 0
}

// printable fills dst with the bytes ' '+rand.New(src).Intn(95) would (44 of
// every 100 TeraGen bytes): Intn → Int31n takes bits 32–62 of an output,
// draws again above its rejection bound and returns the value mod 95.
func (r *lagged) printable(dst []byte) {
	const n = 95
	const max = 1<<31 - 1 - (1<<31)%n
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
			if v > max { // Int31n draws again: this output makes no byte
				r.i++
				break
			}
			dst[j] = byte(' ' + v%n)
		}
		r.i, dst = r.i+j, dst[j:]
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
