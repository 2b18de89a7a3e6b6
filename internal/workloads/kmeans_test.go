package workloads

import (
	"math"
	"strconv"
	"testing"
)

// checkParseDecimal holds parseDecimal to strconv.ParseFloat: the same
// accept/reject decision on everything finite, the same bits when accepted,
// and a reject where strconv returns NaN or ±Inf.
func checkParseDecimal(t *testing.T, s string) {
	t.Helper()
	want, err := strconv.ParseFloat(s, 64)
	wantOK := err == nil && !math.IsNaN(want) && !math.IsInf(want, 0)
	got, ok := parseDecimal([]byte(s))
	if ok != wantOK {
		t.Errorf("parseDecimal(%q) ok=%v, strconv says %v (%v, %v)", s, ok, wantOK, want, err)
	} else if ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("parseDecimal(%q) = %v [%#x], strconv says %v [%#x]",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
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

// TestParsePointRejectsNonFinite: strconv.ParseFloat returns NaN and ±Inf
// with a nil error; as a coordinate either poisons its centroid, so the
// record is dropped like any other malformed line.
func TestParsePointRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"nan", "inf", "infinity", "-Inf", "NaN", "+Infinity", "1e999", "x", ""} {
		for _, line := range []string{bad + ",2", "1," + bad} {
			if pt, ok := parsePointInto(nil, []byte(line), 2); ok {
				t.Errorf("parsePointInto(%q) accepted %v", line, pt)
			}
		}
	}
	pt, ok := parsePointInto(nil, []byte("-0.000,1.,.5,1234567890.123456,1e3"), 5)
	want := []float64{math.Copysign(0, -1), 1, 0.5, 1234567890.123456, 1000}
	if !ok || len(pt) != len(want) {
		t.Fatalf("parsePointInto = %v, %v", pt, ok)
	}
	for i := range want {
		if math.Float64bits(pt[i]) != math.Float64bits(want[i]) {
			t.Errorf("coordinate %d = %v [%#x], want %v", i, pt[i], math.Float64bits(pt[i]), want[i])
		}
	}
	if _, ok := parsePointInto(nil, []byte("1,2,3"), 2); ok {
		t.Error("a 3-coordinate line passed as 2-dimensional")
	}
}
