package workloads

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"iochar/internal/datagen"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// checkParseDecimal holds parseField, on s as one whole field, to
// strconv.ParseFloat: the same accept/reject decision on everything finite,
// the same bits and the whole of s when accepted, and a reject where strconv
// returns NaN or ±Inf.
func checkParseDecimal(t *testing.T, s string) {
	t.Helper()
	sep := byte(',')
	for strings.IndexByte(s, sep) >= 0 {
		if sep++; sep == ',' {
			return // s holds every byte, so no separator leaves it one field
		}
	}
	want, err := strconv.ParseFloat(s, 64)
	wantOK := err == nil && !math.IsNaN(want) && !math.IsInf(want, 0)
	got, n, ok := parseField([]byte(s), sep)
	if ok != wantOK {
		t.Errorf("parseField(%q) ok=%v, strconv says %v (%v, %v)", s, ok, wantOK, want, err)
	} else if ok && (math.Float64bits(got) != math.Float64bits(want) || n != len(s)) {
		t.Errorf("parseField(%q) = %v [%#x] over %d bytes, strconv says %v [%#x]",
			s, got, math.Float64bits(got), n, want, math.Float64bits(want))
	}
}

// decimalSeeds spell the values the fast path is most likely to get wrong
// (ties k/2000, their neighbours, carries, its range ends, non-finite) in
// the forms the parser meets: 'f' with 3 and 17 decimals and shortest 'g'.
func decimalSeeds() []string {
	vs := []float64{0, math.Copysign(0, -1), 0.9995, 999.9995, 1e9, -1e9, 123.456,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, k := range []float64{1, 125, 2125, 624_375, 1_999_999_999_999} {
		tie := k / 2000
		vs = append(vs, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	seeds := []string{"", "-", ".", "-.", "+1.5", "-0.000", "1.", ".5", "1e3", "1E-3", "0x1p-2", "1_000.5",
		"1234567890.12345", "1234567890.123456", "999999999999999", "9999999999999999", "0.000000000000001",
		"00000000000000001.5", "1..2", "1.2.3", "1,2", " 1", "1 ", "nan", "NaN", "inf", "-Inf", "+infinity", "Infinity"}
	for _, v := range vs {
		seeds = append(seeds, strconv.FormatFloat(v, 'f', 3, 64), strconv.FormatFloat(v, 'f', 17, 64),
			strconv.FormatFloat(v, 'g', -1, 64))
	}
	return seeds
}

func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkParseDecimal)
}

// parsePointReference is parsePointInto as a split on sep and a
// strconv.ParseFloat per field, NaN and ±Inf rejected.
func parsePointReference(line []byte, sep byte) ([]float64, bool) {
	var pt []float64
	for _, f := range bytes.Split(line, []byte{sep}) {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		pt = append(pt, v)
	}
	return pt, true
}

// FuzzParsePoint: for any line and any separator byte — one the exact
// path also reads as a sign, a point or a digit included — parsePointInto
// accepts what the reference accepts, with the same bits, and holds the
// coordinate count to dims.
func FuzzParsePoint(f *testing.F) {
	datagen.Lines(datagen.PointGen{Seed: 1}.Part(0, 2<<10), func(line []byte) { f.Add(string(line), byte(',')) })
	seeds := decimalSeeds()
	for i, sep := range []byte{',', ';', '.', '-', '1', 'e', '\n', 0} {
		f.Add(strings.Join(seeds[i*8:i*8+8], string(sep)), sep)
	}
	f.Add("1.5,-2.25,3", byte('.'))
	f.Add("-1--2", byte('-'))
	f.Fuzz(func(t *testing.T, line string, sep byte) {
		want, wantOK := parsePointReference([]byte(line), sep)
		dims := bytes.Count([]byte(line), []byte{sep}) + 1
		got, ok := parsePointInto(nil, []byte(line), sep, dims)
		if ok != wantOK {
			t.Fatalf("parsePointInto(%q, %q) ok=%v, reference %v %v", line, sep, ok, wantOK, want)
		}
		for i := range want {
			if ok && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("parsePointInto(%q, %q)[%d] = %v, reference %v", line, sep, i, got[i], want[i])
			}
		}
		if _, ok := parsePointInto(nil, []byte(line), sep, dims+1); ok {
			t.Fatalf("parsePointInto(%q, %q) passed %d coordinates as %d", line, sep, dims, dims+1)
		}
	})
}

// TestParsePointRejectsNonFinite: strconv.ParseFloat returns NaN and ±Inf
// with a nil error; as a coordinate either poisons its centroid, so the
// record is dropped like any other malformed line.
func TestParsePointRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"nan", "inf", "infinity", "-Inf", "NaN", "+Infinity", "1e999", "x", ""} {
		for _, line := range []string{bad + ",2", "1," + bad} {
			if pt, ok := parsePointInto(nil, []byte(line), ',', 2); ok {
				t.Errorf("parsePointInto(%q) accepted %v", line, pt)
			}
		}
	}
	pt, ok := parsePointInto(nil, []byte("-0.000,1.,.5,1234567890.123456,1e3"), ',', 5)
	want := []float64{math.Copysign(0, -1), 1, 0.5, 1234567890.123456, 1000}
	if !ok || len(pt) != len(want) {
		t.Fatalf("parsePointInto = %v, %v", pt, ok)
	}
	for i := range want {
		if math.Float64bits(pt[i]) != math.Float64bits(want[i]) {
			t.Errorf("coordinate %d = %v [%#x], want %v", i, pt[i], math.Float64bits(pt[i]), want[i])
		}
	}
	if _, ok := parsePointInto(nil, []byte("1,2,3"), ',', 2); ok {
		t.Error("a 3-coordinate line passed as 2-dimensional")
	}
}

// Property: a partial survives the binary form bit for bit (NaN payloads and
// -0 included), and folding two of them adds counts and sums.
func TestPartialRoundTrip(t *testing.T) {
	f := func(count uint64, bits []uint64) bool {
		sum := make([]float64, len(bits))
		for i, b := range bits {
			sum[i] = math.Float64frombits(b)
		}
		enc := appendPartial(nil, count, sum)
		var one, two partialSum
		one.fold([][]byte{enc})
		two.fold([][]byte{enc, enc})
		if len(enc) != 8*(1+len(sum)) || one.count != count || two.count != 2*count || len(one.sum) != len(sum) {
			return false
		}
		for i, v := range sum {
			// 0+v is v except that it turns -0 into +0 and quiets a NaN.
			if one.sum[i] != v && !(math.IsNaN(v) && math.IsNaN(one.sum[i])) {
				return false
			}
			if w := v + v; two.sum[i] != w && !math.IsNaN(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFoldRejectsMismatchedPartial: a value shorter or longer than its
// group's first used to index-panic or silently lose coordinates.
func TestFoldRejectsMismatchedPartial(t *testing.T) {
	good := appendPartial(nil, 1, []float64{1, 2, 3})
	for name, vals := range map[string][][]byte{
		"truncated":       {good, good[:len(good)-8]},
		"over-long":       {good, appendPartial(nil, 1, []float64{1, 2, 3, 4})},
		"ragged":          {good, good[:len(good)-3]},
		"ragged first":    {good[:len(good)-3], good[:len(good)-3]},
		"shorter than 8":  {good[:5]},
		"empty":           {nil},
		"text, old style": {[]byte("1;1;2;3")},
	} {
		for _, r := range []mapred.Reducer{&sumCombiner{}, &sumReducer{}} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "kmeans: bad partial") {
						t.Errorf("%s, %T: recovered %q, want the bad-partial panic", name, r, msg)
					}
				}()
				r.Reduce([]byte("0"), vals, func(k, v []byte) {})
			}()
		}
	}
}

// TestKMeansIterationMatchesSerialReference: one refinement pass through
// map, combine, spill, shuffle and reduce must produce the centers a plain
// in-memory loop computes. Summation order differs across spills and
// combiner groups; nothing else may.
func TestKMeansIterationMatchesSerialReference(t *testing.T) {
	r := newRig()
	km := NewKMeans()
	km.Prepare(r.fs, r.cl, NewPartTable(), 300_000, 42)
	var got [][]float64
	r.env.Go("driver", func(p *sim.Proc) {
		inputs, out := r.fs.List(inputDir("KM")+"/"), outputDir("KM")+"-iter0"
		seeds, err := km.seedCenters(p, r.fs, inputs, r.cl.Master.Name)
		if err == nil {
			_, err = r.rt.Run(p, km.iterationJob(inputs, out, seeds))
		}
		if err == nil {
			got, err = km.readCenters(p, r.fs, out, r.cl.Master.Name, seeds)
		}
		if err != nil {
			t.Error(err)
		}
	})
	r.env.Run(0)

	var pts [][]float64
	gen := datagen.PointGen{Seed: 42}
	per := int64(300_000) / int64(len(r.cl.Slaves))
	for i := range r.cl.Slaves {
		datagen.Lines(gen.Part(i, per), func(line []byte) {
			pt := make([]float64, datagen.PointDims)
			for d, f := range strings.Split(string(line), ",") {
				pt[d], _ = strconv.ParseFloat(f, 64)
			}
			pts = append(pts, pt)
		})
	}
	seeds := pts[:numCenters]
	counts := make([]float64, numCenters)
	want := make([][]float64, numCenters)
	for i := range want {
		want[i] = make([]float64, datagen.PointDims)
	}
	for _, pt := range pts {
		c := nearest(pt, seeds)
		counts[c]++
		for d, v := range pt {
			want[c][d] += v
		}
	}
	if len(got) != numCenters {
		t.Fatalf("%d centers read back, want %d", len(got), numCenters)
	}
	moved := 0
	for c := range want {
		for d := range want[c] {
			if counts[c] == 0 {
				want[c][d] = seeds[c][d] // an empty cluster keeps its center
			} else {
				want[c][d] /= counts[c]
			}
			if math.Abs(got[c][d]-want[c][d]) > 1e-9*math.Abs(want[c][d]) {
				t.Errorf("center %d dim %d = %v, reference %v", c, d, got[c][d], want[c][d])
			}
		}
		if counts[c] > 0 && got[c][0] != seeds[c][0] {
			moved++
		}
	}
	if moved < 2 {
		t.Errorf("only %d centers moved; the pass did nothing", moved)
	}
}

// nearestOneAtATime is nearest as one center per pass over the point: the
// reference the four-center passes must match index for index.
func nearestOneAtATime(pt []float64, centers [][]float64) int {
	best, bestD := 0, 0.0
	for i, c := range centers {
		d := 0.0
		for j := range pt {
			diff := pt[j] - c[j]
			d += diff * diff
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TestNearestMatchesOneAtATime covers K = 1…17 (every remainder of K mod 4
// beside whole groups) at 1…9 dimensions, on coordinates drawn from a small
// grid so that distances tie, with duplicated centers (a tie keeps the lower
// index) and coordinates of ±1e200, whose squares overflow to +Inf.
func TestNearestMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 1e200
		case 1:
			return -1e200
		case 2, 3:
			return rng.NormFloat64()
		}
		return float64(rng.Intn(3) - 1)
	}
	point := func(dims int) []float64 {
		pt := make([]float64, dims)
		for j := range pt {
			pt[j] = coord()
		}
		return pt
	}
	for k := 1; k <= 17; k++ {
		for dims := 1; dims <= 9; dims++ {
			centers := make([][]float64, k)
			for i := range centers {
				if centers[i] = point(dims); i > 0 && rng.Intn(3) == 0 {
					centers[i] = centers[rng.Intn(i)] // a duplicate of an earlier center
				}
			}
			for range 200 {
				pt := point(dims)
				if got, want := nearest(pt, centers), nearestOneAtATime(pt, centers); got != want {
					t.Fatalf("K=%d dims=%d point %v: nearest %d, one at a time %d\ncenters %v", k, dims, pt, got, want, centers)
				}
			}
			same := slices.Repeat([][]float64{centers[0]}, k)
			if got := nearest(centers[0], same); got != 0 {
				t.Fatalf("K=%d dims=%d: %d identical centers gave index %d, want 0", k, dims, k, got)
			}
		}
	}
}

var sinkNearest int

// BenchmarkNearest assigns a PointGen part's points among 16 centers of 8
// dimensions, the iteration jobs' shape.
func BenchmarkNearest(b *testing.B) {
	var pts [][]float64
	datagen.Lines(datagen.PointGen{Seed: 1}.Part(0, 4<<20), func(line []byte) {
		pt, _ := parsePointInto(nil, line, ',', 8)
		pts = append(pts, pt)
	})
	centers := pts[:numCenters]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			sinkNearest += nearest(pt, centers)
		}
	}
}

var sinkPartial partialSum

// BenchmarkKMeansIterRecord is the per-record work of an iteration job
// outside the framework: parse, nearest, encode, and the combiner's decode.
func BenchmarkKMeansIterRecord(b *testing.B) {
	var recs [][]byte
	datagen.Lines(datagen.PointGen{Seed: 1}.Part(0, 64<<10), func(line []byte) { recs = append(recs, line) })
	centers := make([][]float64, numCenters)
	for i := range centers {
		centers[i], _ = parsePointInto(nil, recs[i], ',', datagen.PointDims)
	}
	var pt []float64
	var val []byte
	vals := make([][]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, _ = parsePointInto(pt, recs[i%len(recs)], ',', datagen.PointDims)
		val = appendPartial(val, uint64(nearest(pt, centers)), pt)
		vals[0] = val
		sinkPartial.fold(vals)
	}
}
