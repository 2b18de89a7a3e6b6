// Output-equality oracles. Most outputs must match the golden run
// bit-exactly (as canonical checksums); the exceptions are outputs carrying
// full-precision float accumulations, where fault recovery can legitimately
// reorder reduce-side value arrival and perturb the low bits of a sum.
// Those are compared numerically, field by field, under a tight relative
// tolerance — close enough to catch corruption, loose enough to admit
// float-addition reassociation.
package chaos

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Relative and absolute tolerance for float-carrying outputs: wide enough
// for sum reassociation across a handful of partials, orders of magnitude
// below any real divergence.
const (
	relTol = 1e-9
	absTol = 1e-12
)

// FloatTolerant reports whether an output file's values carry
// full-precision float accumulations (K-means iteration partial sums,
// PageRank iteration states) and must be compared numerically. Final
// outputs — TeraSort, aggregation totals, the K-means clustering — compare
// bit-exactly.
func FloatTolerant(path string) bool {
	return strings.Contains(path, "/out-iter") || strings.Contains(path, "/out-state")
}

// captureFloatOutputs returns an Inspect hook that reads back the raw bytes
// of every float-tolerant output file while the cluster still exists. Read
// failures are left to the audit's Unreadable oracle rather than reported
// twice.
func captureFloatOutputs(dst map[string][]byte) func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
	return func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
		for _, path := range fs.List("/bench/") {
			if !FloatTolerant(path) {
				continue
			}
			r, err := fs.Open(path, cl.Master.Name)
			if err != nil {
				continue
			}
			data, err := r.ReadAt(p, 0, r.Size())
			if err != nil {
				continue
			}
			dst[path] = data
		}
	}
}

// CompareOutputs judges a faulted run's outputs against the golden run's:
// wantSums/gotSums are the audits' canonical checksums, wantRaw/gotRaw the
// captured bytes of float-tolerant files. Findings are returned in path
// order, deterministically.
func CompareOutputs(wantSums, gotSums map[string]string, wantRaw, gotRaw map[string][]byte) []string {
	paths := map[string]bool{}
	for p := range wantSums {
		paths[p] = true
	}
	for p := range gotSums {
		paths[p] = true
	}
	var findings []string
	for _, p := range slices.Sorted(maps.Keys(paths)) {
		want, okW := wantSums[p]
		got, okG := gotSums[p]
		switch {
		case !okW:
			findings = append(findings, "unexpected output "+p)
		case !okG:
			findings = append(findings, "missing output "+p)
		case want == got:
			// Bit-exact (modulo pair order); nothing to judge.
		case !FloatTolerant(p):
			findings = append(findings, fmt.Sprintf("output %s checksum mismatch (%.8s != %.8s)", p, got, want))
		case wantRaw[p] == nil || gotRaw[p] == nil:
			findings = append(findings, fmt.Sprintf("output %s diverged and its bytes were not captured", p))
		default:
			if err := tolerantEqual(wantRaw[p], gotRaw[p]); err != nil {
				findings = append(findings, fmt.Sprintf("output %s diverged beyond float tolerance: %v", p, err))
			}
		}
	}
	return findings
}

type kvPair struct{ k, v []byte }

func parsePairs(data []byte) []kvPair {
	var pairs []kvPair
	for len(data) > 0 {
		k, v, rest := mapred.NextKV(data)
		if len(rest) >= len(data) {
			break
		}
		pairs = append(pairs, kvPair{k, v})
		data = rest
	}
	return pairs
}

// tolerantEqual compares two KV streams as key-sorted pair lists, with
// values matched field-by-field: fields that parse as floats compare under
// relTol/absTol, everything else must be byte-identical.
func tolerantEqual(want, got []byte) error {
	wp, gp := parsePairs(want), parsePairs(got)
	if len(wp) != len(gp) {
		return fmt.Errorf("%d pairs, want %d", len(gp), len(wp))
	}
	byKey := func(p []kvPair) func(i, j int) bool {
		return func(i, j int) bool { return bytes.Compare(p[i].k, p[j].k) < 0 }
	}
	sort.SliceStable(wp, byKey(wp))
	sort.SliceStable(gp, byKey(gp))
	for i := range wp {
		if !bytes.Equal(wp[i].k, gp[i].k) {
			return fmt.Errorf("key %q, want %q", gp[i].k, wp[i].k)
		}
		if err := valueEqual(wp[i].v, gp[i].v); err != nil {
			return fmt.Errorf("key %q: %v", wp[i].k, err)
		}
	}
	return nil
}

// splitFields cuts a value on the delimiters the workloads' value encodings
// use (K-means "count;f1;f2;...", PageRank "rank|adjacency").
func splitFields(v []byte) [][]byte {
	return bytes.FieldsFunc(v, func(r rune) bool { return r == ';' || r == '|' })
}

func valueEqual(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wf, gf := splitFields(want), splitFields(got)
	if len(wf) != len(gf) {
		return fmt.Errorf("value %q has %d fields, want %d (%q)", got, len(gf), len(wf), want)
	}
	for i := range wf {
		if bytes.Equal(wf[i], gf[i]) {
			continue
		}
		w, errW := strconv.ParseFloat(string(wf[i]), 64)
		g, errG := strconv.ParseFloat(string(gf[i]), 64)
		if errW != nil || errG != nil {
			return fmt.Errorf("field %q != %q", gf[i], wf[i])
		}
		diff := w - g
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if aw := abs(w); aw > scale {
			scale = aw
		}
		if diff > absTol && diff > relTol*scale {
			return fmt.Errorf("field %g off by %g from %g", g, diff, w)
		}
	}
	return nil
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
