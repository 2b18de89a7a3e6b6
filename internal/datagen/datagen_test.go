package datagen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTeraGenDeterministic(t *testing.T) {
	g := TeraGen{Seed: 7}
	a, b := g.Part(3, 10_000), g.Part(3, 10_000)
	if !bytes.Equal(a, b) {
		t.Error("same (seed, part) produced different data")
	}
	other := g.Part(4, 10_000)
	if bytes.Equal(a, other) {
		t.Error("different parts produced identical data")
	}
}

// teraGenReference is Part as it was written before the random bytes were
// drawn straight from the source: every one through rand.Rand.Intn. The
// goldens pin Part's bytes only at the scales they run; this pins them for
// any (seed, part, size).
func teraGenReference(g TeraGen, part int, size int64) []byte {
	n := size / RecordSize
	if n == 0 {
		n = 1
	}
	rng := rand.New(rand.NewSource(g.Seed*1_000_003 + int64(part)))
	out := make([]byte, 0, n*RecordSize)
	row := int64(part) << 40
	for i := int64(0); i < n; i++ {
		for k := 0; k < KeySize; k++ {
			out = append(out, byte(' '+rng.Intn(95)))
		}
		out = append(out, fmt.Sprintf("%022d", row+i)...)
		fill := byte('A' + i%26)
		for k := 0; k < (RecordSize-KeySize-22)/2; k++ {
			out = append(out, fill)
		}
		for len(out)%RecordSize != 0 {
			out = append(out, byte(' '+rng.Intn(95)))
		}
	}
	return out
}

// paths names printable's and refill's two implementations by the value of
// vector that selects them.
var paths = []struct {
	name   string
	vector bool
}{{"go", false}, {"avx2", true}}

// setVector selects a path for the caller's duration and reports whether
// this CPU can run it; the returned func restores the init-time choice.
func setVector(on bool) (ok bool, restore func()) {
	was := vector
	vector = on
	return !on || hasAVX2, func() { vector = was }
}

// bothPaths runs f once on the Go loops and once on the AVX2 kernel,
// skipping the kernel where the CPU lacks it.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			ok, restore := setVector(p.vector)
			defer restore()
			if !ok {
				t.Skip("no AVX2 on this CPU")
			}
			f(t)
		})
	}
}

func TestTeraGenMatchesIntnReference(t *testing.T) { bothPaths(t, testTeraGenMatchesIntnReference) }

func testTeraGenMatchesIntnReference(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		part int
		size int64
	}{
		{1, 0, 1}, {1, 0, 100_000}, {1, 7, 250_050}, {42, 3, 1 << 20}, {-5, 1000, 64_000}, {1 << 40, 2, 99},
	} {
		g := TeraGen{Seed: tc.seed}
		got, want := g.Part(tc.part, tc.size), teraGenReference(g, tc.part, tc.size)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d part %d size %d: Part differs from the rng.Intn reference (%d vs %d bytes)",
				tc.seed, tc.part, tc.size, len(got), len(want))
		}
	}
}

// FuzzTeraGenPart: Part equals the rng.Intn reference for any seed, part and
// size up to 64 KiB, on both paths. Parts are 16-bit: the reference formats
// part<<40 + i as a signed number, so it must stay non-negative.
func FuzzTeraGenPart(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1))
	f.Add(int64(-5), uint16(1000), uint16(64_000))
	f.Add(int64(math.MinInt64), uint16(3), uint16(60_700))
	f.Fuzz(func(t *testing.T, seed int64, part, size uint16) {
		g := TeraGen{Seed: seed}
		want := teraGenReference(g, int(part), int64(size))
		for _, p := range paths {
			ok, restore := setVector(p.vector)
			if ok && !bytes.Equal(g.Part(int(part), int64(size)), want) {
				t.Errorf("seed %d part %d size %d: Part on the %s path differs from the rng.Intn reference", seed, part, size, p.name)
			}
			restore()
		}
	})
}

var laggedSeeds = []int64{0, 1, -5, 1 << 40, math.MinInt64}

// TestLaggedMatchesSource: lagged's stream is rand.NewSource's, output for
// output, across more than four refills.
func TestLaggedMatchesSource(t *testing.T) { bothPaths(t, testLaggedMatchesSource) }

func testLaggedMatchesSource(t *testing.T) {
	for _, seed := range laggedSeeds {
		src := rand.NewSource(seed).(rand.Source64)
		var r lagged
		r.seed(seed)
		for k := 0; k < 5*len(r.w)+17; k++ {
			if r.i == len(r.w) {
				r.refill()
			}
			got, want := r.w[r.i], src.Uint64()
			r.i++
			if got != want {
				t.Fatalf("seed %d output %d: lagged %#x, source %#x", seed, k, got, want)
			}
		}
	}
}

// TestPrintableMatchesIntn: a million printable draws are the bytes
// ' '+rand.New(src).Intn(95) gives.
func TestPrintableMatchesIntn(t *testing.T) { bothPaths(t, testPrintableMatchesIntn) }

func testPrintableMatchesIntn(t *testing.T) {
	for _, seed := range laggedSeeds {
		rng := rand.New(rand.NewSource(seed))
		var r lagged
		r.seed(seed)
		got := make([]byte, 1<<20)
		r.printable(got)
		for k, b := range got {
			if want := byte(' ' + rng.Intn(95)); b != want {
				t.Fatalf("seed %d draw %d: printable %q, Intn %q", seed, k, b, want)
			}
		}
	}
}

// outputs is a rand.Source that returns its words in order.
type outputs []uint64

func (o *outputs) Int63() int64 {
	v := (*o)[0]
	*o = (*o)[1:]
	return int64(v & (1<<63 - 1))
}

func (o *outputs) Seed(int64) {}

// TestPrintableRedrawsLikeInt31n: an output above Int31n's rejection bound
// makes no byte, anywhere in the window and at its last slot before a
// refill. A real stream holds one in ~7·10⁸, so the draws above never meet
// one. Every third slot redrawn leaves the kernel no clean 8-output group.
func TestPrintableRedrawsLikeInt31n(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		var slots []int
		for k := 0; k < 607; k += 3 { // 203 of 607, the last slot among them
			slots = append(slots, k)
		}
		checkRedraws(t, slots, 7, 1<<20)
	})
}

// TestPrintableSparseRedraws: a redrawn output after clean 8-output groups
// hands the kernel's group to the Go loop, which draws past it, and the
// kernel takes over again. Drawn in one span, slot 13 sits in the second
// group, 600 in the window's last full group once the kernel resumes at
// 14, and 606 is the window's last output; TeraGen's 10- and 34-byte
// spans meet them at other offsets.
func TestPrintableSparseRedraws(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		for _, spans := range [][]int{{1 << 20}, {10, 34}, {44}} {
			checkRedraws(t, []int{13, 600, 606}, spans...)
		}
	})
}

// checkRedraws draws a window seeded with 3 whose slots are pushed above
// the rejection bound, and the next 100 bytes after it, in printable calls
// of spans[0], spans[1], … bytes (cycling), and compares them with what
// rand.Intn draws from the same outputs.
func checkRedraws(t *testing.T, slots []int, spans ...int) {
	t.Helper()
	var r lagged
	r.seed(3)
	for _, k := range slots {
		r.w[k] |= (1<<31 - 3) << 32
	}
	next := r
	next.refill()
	src := outputs(append(r.w[:len(r.w):len(r.w)], next.w[:]...))
	rng := rand.New(&src)
	got := make([]byte, len(r.w)-len(slots)+100)
	for k, c := 0, 0; k < len(got); c++ {
		n := min(len(got)-k, spans[c%len(spans)])
		r.printable(got[k : k+n])
		k += n
	}
	for k, b := range got {
		if want := byte(' ' + rng.Intn(95)); b != want {
			t.Fatalf("spans %v, draw %d: printable %q, Intn %q", spans, k, b, want)
		}
	}
}

// BenchmarkPrintable: the kernel alone on each path, 600 outputs of one
// window, no refill.
func BenchmarkPrintable(b *testing.B) {
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			ok, restore := setVector(p.vector)
			defer restore()
			if !ok {
				b.Skip("no AVX2 on this CPU")
			}
			var r lagged
			r.seed(1)
			dst := make([]byte, 600)
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				r.i = 0
				r.printable(dst)
			}
		})
	}
}

func BenchmarkTeraGenPart(b *testing.B) {
	g := TeraGen{Seed: 1}
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		g.Part(i, 1<<20)
	}
}

func TestTeraGenRecordFraming(t *testing.T) {
	g := TeraGen{Seed: 1}
	data := g.Part(0, 5_000)
	if len(data)%RecordSize != 0 {
		t.Fatalf("length %d not a multiple of %d", len(data), RecordSize)
	}
	if len(data) < 5_000 {
		t.Errorf("got %d bytes, want >= 5000", len(data))
	}
	// Keys are printable.
	for off := 0; off < len(data); off += RecordSize {
		for _, c := range Key(data, off) {
			if c < ' ' || c > '~' {
				t.Fatalf("non-printable key byte %d at %d", c, off)
			}
		}
	}
}

func TestTeraGenKeysDisperse(t *testing.T) {
	g := TeraGen{Seed: 2}
	data := g.Part(0, 100_000)
	firsts := map[byte]int{}
	for off := 0; off < len(data); off += RecordSize {
		firsts[data[off]]++
	}
	if len(firsts) < 50 {
		t.Errorf("only %d distinct first key bytes; keys not dispersing", len(firsts))
	}
}

func TestOrderGenSchema(t *testing.T) {
	g := OrderGen{Seed: 5}
	data := g.Part(0, 20_000)
	lines := 0
	Lines(data, func(line []byte) {
		lines++
		parts := strings.Split(string(line), "|")
		if len(parts) != 6 {
			t.Fatalf("line %q has %d fields, want 6", line, len(parts))
		}
		if !strings.HasPrefix(parts[3], "cat-") {
			t.Fatalf("category %q malformed", parts[3])
		}
		if _, err := strconv.Atoi(parts[4]); err != nil {
			t.Fatalf("price %q not numeric", parts[4])
		}
	})
	if lines < 100 {
		t.Errorf("only %d lines in 20KB", lines)
	}
}

func TestOrderGenCategorySkew(t *testing.T) {
	g := OrderGen{Seed: 5}
	data := g.Part(0, 200_000)
	counts := map[string]int{}
	total := 0
	Lines(data, func(line []byte) {
		parts := strings.SplitN(string(line), "|", 5)
		counts[parts[3]]++
		total++
	})
	// Zipf: the most popular category should dominate.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.2*float64(total) {
		t.Errorf("top category holds %d/%d, want Zipf skew (>20%%)", max, total)
	}
}

func TestPointGenParsesAndClusters(t *testing.T) {
	g := PointGen{Seed: 9}
	data := g.Part(0, 100_000)
	var pts [][]float64
	Lines(data, func(line []byte) {
		fields := strings.Split(string(line), ",")
		if len(fields) != PointDims {
			t.Fatalf("point %q has %d dims, want %d", line, len(fields), PointDims)
		}
		pt := make([]float64, PointDims)
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("bad coordinate %q: %v", f, err)
			}
			pt[i] = v
		}
		pts = append(pts, pt)
	})
	if len(pts) < 500 {
		t.Fatalf("only %d points", len(pts))
	}
	// Clustered data has within-cluster spread << overall spread: check the
	// first coordinate takes on a few concentrated bands by comparing the
	// 10-quantile gaps.
	xs := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p[0]
	}
	sort.Float64s(xs)
	span := xs[len(xs)-1] - xs[0]
	if span <= 0 {
		t.Fatal("degenerate point spread")
	}
}

func TestPointGenCentersSharedAcrossParts(t *testing.T) {
	g := PointGen{Seed: 9}
	a, b := g.Part(0, 50_000), g.Part(1, 50_000)
	mean := func(data []byte) float64 {
		var sum float64
		var n int
		Lines(data, func(line []byte) {
			f := strings.SplitN(string(line), ",", 2)[0]
			v, _ := strconv.ParseFloat(f, 64)
			sum += v
			n++
		})
		return sum / float64(n)
	}
	ma, mb := mean(a), mean(b)
	if math.Abs(ma-mb) > 100 {
		t.Errorf("part means diverge (%f vs %f); centers not shared", ma, mb)
	}
}

func TestGraphGenEdgesParse(t *testing.T) {
	g := GraphGen{Seed: 3}
	data := g.Part(2, 50_000)
	edges := 0
	Lines(data, func(line []byte) {
		parts := strings.Split(string(line), "\t")
		if len(parts) != 2 {
			t.Fatalf("edge %q malformed", line)
		}
		src, err1 := strconv.ParseInt(parts[0], 10, 64)
		dst, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("edge %q not numeric", line)
		}
		if src>>32 != 2 || dst>>32 != 2 {
			t.Fatalf("edge %q escapes its part namespace", line)
		}
		edges++
	})
	if edges < 1000 {
		t.Errorf("only %d edges", edges)
	}
}

func TestGraphGenPowerLawInDegree(t *testing.T) {
	g := GraphGen{Seed: 3}
	data := g.Part(0, 400_000)
	indeg := map[string]int{}
	total := 0
	Lines(data, func(line []byte) {
		parts := strings.Split(string(line), "\t")
		indeg[parts[1]]++
		total++
	})
	degs := make([]int, 0, len(indeg))
	for _, d := range indeg {
		degs = append(degs, d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	topShare := 0
	for i := 0; i < len(degs)/100+1; i++ {
		topShare += degs[i]
	}
	// Top 1% of vertices should attract a disproportionate share of edges.
	if float64(topShare) < 0.15*float64(total) {
		t.Errorf("top 1%% holds %d/%d edges; in-degree not heavy-tailed", topShare, total)
	}
}

func TestLinesIgnoresTrailingFragment(t *testing.T) {
	var got []string
	Lines([]byte("a\nbb\nccc"), func(l []byte) { got = append(got, string(l)) })
	if len(got) != 2 || got[0] != "a" || got[1] != "bb" {
		t.Errorf("Lines = %v, want [a bb]", got)
	}
}

// Property: every generator emits at least the requested volume (rounded to
// whole records) and is deterministic.
func TestQuickGeneratorsDeterministic(t *testing.T) {
	f := func(seed int64, part uint8, kb uint8) bool {
		size := int64(kb)%32*1024 + 1024
		gens := []func() []byte{
			func() []byte { return TeraGen{Seed: seed}.Part(int(part), size) },
			func() []byte { return OrderGen{Seed: seed}.Part(int(part), size) },
			func() []byte { return PointGen{Seed: seed}.Part(int(part), size) },
			func() []byte { return GraphGen{Seed: seed}.Part(int(part), size) },
		}
		for _, g := range gens {
			a, b := g(), g()
			if !bytes.Equal(a, b) {
				return false
			}
			if int64(len(a)) < size/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// fixed3Seeds are the values appendFixed3 is most likely to get wrong:
// exact ties k/2000 and the floats either side, values whose third decimal
// carries, the ends of the fast path's range, and everything non-finite.
func fixed3Seeds() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 0.9995, 999.9995, 1, 1e9, -1e9, 123.456, -0.0004,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, k := range []float64{1, 125, 2001, 2125, 624_375, 1_999_999, 1_999_999_999_999} {
		tie := k / 2000
		vs = append(vs, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	vs = append(vs, math.Nextafter(1, 0), math.Nextafter(1e9, 0), math.Nextafter(1e9, math.Inf(1)))
	return vs
}

func checkFixed3(t *testing.T, v float64) {
	t.Helper()
	got, want := appendFixed3(nil, v), strconv.AppendFloat(nil, v, 'f', 3, 64)
	if !bytes.Equal(got, want) {
		t.Errorf("appendFixed3(%v [%#x]) = %q, strconv says %q", v, math.Float64bits(v), got, want)
	}
}

func FuzzAppendFixed3(f *testing.F) {
	for _, v := range fixed3Seeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkFixed3(t, math.Float64frombits(bits)) })
}

// TestAppendFixed3MatchesStrconv sweeps what the fuzzer reaches only by
// luck: the float64 nearest every odd k/2000 in three stretches of the fast
// path's range (an exact tie when 125 divides k) with both neighbours, and
// random values at PointGen's scale and over all bit patterns.
func TestAppendFixed3MatchesStrconv(t *testing.T) {
	for k := 1.0; k < 100_000; k += 2 {
		for _, scale := range []float64{1, 1 << 10, 1 << 20} {
			tie := (k + 2000*scale) / 2000
			checkFixed3(t, tie)
			checkFixed3(t, math.Nextafter(tie, 0))
			checkFixed3(t, -math.Nextafter(tie, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 150_000; i++ {
		checkFixed3(t, rng.Float64()*1000+rng.NormFloat64()*25)
		checkFixed3(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestPointGenMatchesStrconvReference: Part is byte-identical to the
// generator as it was written with strconv.AppendFloat alone.
func TestPointGenMatchesStrconvReference(t *testing.T) {
	reference := func(seed int64, part int, size int64) []byte {
		const dims, k = 8, 16
		crng := rand.New(rand.NewSource(seed * 31))
		var centers [k][dims]float64
		for i := range centers {
			for d := range centers[i] {
				centers[i][d] = crng.Float64() * 1000
			}
		}
		rng := rand.New(rand.NewSource(seed*104_729 + int64(part)))
		var out []byte
		for int64(len(out)) < size {
			c := centers[rng.Intn(k)]
			for d := 0; d < dims; d++ {
				if d > 0 {
					out = append(out, ',')
				}
				out = strconv.AppendFloat(out, c[d]+rng.NormFloat64()*25, 'f', 3, 64)
			}
			out = append(out, '\n')
		}
		return out
	}
	for _, tc := range []struct {
		seed int64
		part int
	}{{1, 0}, {42, 3}, {-5, 1000}} {
		got, want := PointGen{Seed: tc.seed}.Part(tc.part, 1<<20), reference(tc.seed, tc.part, 1<<20)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d part %d: Part differs from the strconv reference", tc.seed, tc.part)
		}
	}
}

func BenchmarkPointGenPart(b *testing.B) {
	g := PointGen{Seed: 1}
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		g.Part(i, 1<<20)
	}
}
