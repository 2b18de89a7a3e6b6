package core

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// The paper's conclusions as checked rows. Each claim names the cells it
// reads, the metric it reads from each, and the relation the paper states
// between the values. TestClaims evaluates every row over sharedSuite (at
// fastOpts) and fails when a verdict differs from the row's expectation;
// TestClaimsMatchExperiments keeps EXPERIMENTS.md's generated block equal
// to the rows' rendering. A known deviation is a row too: it states what
// the paper says and the direction this reproduction moves instead.

// A probe reads one number from a cell's report.
type probe struct {
	name string
	read func(*RunReport) float64
}

const mb = 1e6 // the claims render bytes in 10⁶-byte MB

var (
	hdfsReadMBs  = probe{"HDFS rMB/s (run mean)", func(r *RunReport) float64 { return r.HDFS.RMBs.Mean() }}
	hdfsWriteMBs = probe{"HDFS wMB/s (run mean)", func(r *RunReport) float64 { return r.HDFS.WMBs.Mean() }}
	mrWriteMBs   = probe{"MR wMB/s (run mean)", func(r *RunReport) float64 { return r.MR.WMBs.Mean() }}
	hdfsUtil     = probe{"HDFS %util (run mean)", func(r *RunReport) float64 { return r.HDFS.Util.Mean() }}
	mrUtil       = probe{"MR %util (run mean)", func(r *RunReport) float64 { return r.MR.Util.Mean() }}
	hdfsRqSz     = probe{"HDFS avgrq-sz (busy mean)", func(r *RunReport) float64 { return r.HDFS.AvgrqSz.MeanNonzero() }}
	mrRqSz       = probe{"MR avgrq-sz (busy mean)", func(r *RunReport) float64 { return r.MR.AvgrqSz.MeanNonzero() }}
	hdfsWait     = probe{"HDFS await−svctm ms (busy mean)", func(r *RunReport) float64 { return r.HDFS.WaitMs.MeanNonzero() }}
	mrWait       = probe{"MR await−svctm ms (busy mean)", func(r *RunReport) float64 { return r.MR.WaitMs.MeanNonzero() }}
	hdfsAwait    = probe{"HDFS await ms (busy mean)", func(r *RunReport) float64 { return r.HDFS.AwaitMs.MeanNonzero() }}
	mrAwait      = probe{"MR await ms (busy mean)", func(r *RunReport) float64 { return r.MR.AwaitMs.MeanNonzero() }}
	mrRequests   = probe{"MR requests", func(r *RunReport) float64 { return float64(r.MR.TotalReads + r.MR.TotalWrites) }}
	mrWrittenMB  = probe{"MR written MB", func(r *RunReport) float64 { return float64(r.MR.TotalWrittenBytes) / mb }}
	hdfsReadMB   = probe{"HDFS read MB (device)", func(r *RunReport) float64 { return float64(r.HDFS.TotalReadBytes) / mb }}
	mapInputMB   = probe{"job map input MB", func(r *RunReport) float64 { return float64(r.Jobs[0].MapInputBytes) / mb }}
	reduceOutMB  = probe{"job reduce output MB", func(r *RunReport) float64 { return float64(r.Jobs[0].ReduceOutputBytes) / mb }}
	hdfsPeakRead = probe{"HDFS peak rMB/s", func(r *RunReport) float64 { return r.HDFS.RMBs.Max() }}
	hdfsAbove90  = probe{"HDFS % of disk-intervals >90 %util", func(r *RunReport) float64 { return 100 * r.HDFS.UtilPool.FracAbove(90) }}
	mrAbove90    = probe{"MR % of disk-intervals >90 %util", func(r *RunReport) float64 { return 100 * r.MR.UtilPool.FracAbove(90) }}
	cpuUtil      = probe{"CPU %util (run mean)", func(r *RunReport) float64 { return r.CPUUtil.Mean() }}
	famBase      = family{SlotsRuns[:1], famSlots.label}   // the baseline cell alone
	famMem16     = family{MemoryRuns[:1], famMemory.label} // the 16 GB cell alone
)

// speculativeSplits is the HDFS read volume, in MB, that speculative backup
// maps can add to a pair of runs: a backup re-reads its split chunk by chunk
// until the original wins, so at most one split per backup on either side.
func speculativeSplits(reps []*RunReport) float64 {
	off, on := reps[0].Jobs[0], reps[1].Jobs[0]
	split := float64(off.MapInputBytes) / float64(off.MapTasks)
	return split * float64(on.SpeculativeAttempts+off.SpeculativeAttempts) / mb
}

// A val is one number a claim reads: a probe on one cell.
type val struct {
	w   Workload
	f   Factors
	fam family // labels the cell
	p   probe
}

func (v val) label() string { return v.w.String() + "_" + v.fam.label(v.f) }

// vals reads p on every cell of fam for each workload, in order.
func vals(fam family, p probe, ws ...Workload) []val {
	var out []val
	for _, w := range ws {
		for _, f := range fam.runs {
			out = append(out, val{w, f, fam, p})
		}
	}
	return out
}

// relation is what the paper states between a claim's values: a pair
// relation between two values, or an ordering of the first against the
// rest.
type relation int

const (
	rises    relation = iota // the second value above the first
	falls                    // the second value below the first
	flat                     // |a−b| ≤ tol × the smaller + slack
	above                    // the first value above every other
	notBelow                 // the first value at least every other
	below                    // the first value below every other
)

func (r relation) pair() bool { return r <= flat }

// A claim is one of the paper's conclusions as a checked row.
type claim struct {
	id    string
	paper string // the paper's wording, with its number where it gives one
	vals  []val
	rel   relation
	tol   float64 // flat's relative tolerance
	// perBackup widens flat by one map split per speculative backup in
	// either run (speculativeSplits).
	perBackup bool
	// deviates is the sign this reproduction moves where the paper's
	// relation does not hold ("+" or "−"); empty when it reproduces.
	deviates string
}

// The rows: every concluding observation, every figure (1–12) and every
// table the evaluation reproduces (3, 5, 6, 7). Tolerances are relative to
// the smaller value, so 30 % here is never looser than 30 % of the larger.
var claims = []claim{
	{id: "O1.1", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsReadMBs, AGG), rel: flat, tol: 0.30},
	{id: "O1.2", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsUtil, AGG), rel: flat, tol: 0.30},
	{id: "O1.3", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsRqSz, AGG), rel: flat, tol: 0.35},
	{id: "O1.4", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsReadMBs, TS), rel: flat, tol: 0.30},
	{id: "O1.5", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsUtil, TS), rel: flat, tol: 0.30},
	{id: "O1.6", paper: "Task slots have little effect on the four I/O metrics", vals: vals(famSlots, hdfsRqSz, TS), rel: flat, tol: 0.35},
	{id: "O2.1", paper: "More memory reduces the number of I/O requests", vals: vals(famMemory, mrRequests, TS), rel: falls},
	{id: "O2.2", paper: "More memory relieves disk pressure", vals: vals(famMemory, mrUtil, TS), rel: falls},
	{id: "O2.3", paper: "More memory improves I/O performance for large data", vals: vals(famMemory, hdfsReadMBs, TS), rel: rises},
	{id: "O2.4", paper: "Small-output writes barely change with memory (K-means)", vals: vals(famMemory, mrWrittenMB, KM), rel: flat, tol: 0.15, deviates: "−"},
	{id: "O3.1", paper: "Compression shrinks MapReduce intermediate I/O", vals: vals(famCompress, mrWrittenMB, TS), rel: falls},
	{id: "O3.2", paper: "Compression shrinks MapReduce request sizes", vals: vals(famCompress, mrRqSz, TS), rel: falls},
	{id: "O3.3", paper: "HDFS data is never compressed: the job reads the same input", vals: vals(famCompress, mapInputMB, TS), rel: flat},
	{id: "O3.4", paper: "HDFS data is never compressed: the job writes the same output", vals: vals(famCompress, reduceOutMB, TS), rel: flat},
	{id: "O3.5", paper: "Compression leaves HDFS I/O untouched (1 % plus one split per speculative backup)", vals: vals(famCompress, hdfsReadMB, TS), rel: flat, tol: 0.01, perBackup: true},
	{id: "O4.1", paper: "HDFS I/O is large-sequential, MapReduce intermediate I/O small-random", vals: append(vals(famBase, hdfsRqSz, TS), vals(famBase, mrRqSz, TS)...), rel: above},
	{id: "O4.2", paper: "HDFS I/O is large-sequential, MapReduce intermediate I/O small-random", vals: append(vals(famBase, hdfsRqSz, KM), vals(famBase, mrRqSz, KM)...), rel: above},
	{id: "O4.3", paper: "HDFS I/O is large-sequential, MapReduce intermediate I/O small-random", vals: append(vals(famBase, hdfsRqSz, PR), vals(famBase, mrRqSz, PR)...), rel: above},

	{id: "F1", paper: "Fig. 1: the 1_8 and 2_16 bandwidth curves nearly coincide per workload", vals: vals(famSlots, hdfsReadMBs, KM), rel: flat, tol: 0.30},
	{id: "F2", paper: "Fig. 2: the write side is unchanged where the final output is small (K-means)", vals: vals(famMemory, hdfsWriteMBs, KM), rel: flat, tol: 0.15},
	{id: "F3", paper: "Fig. 3: compressed runs move less intermediate data", vals: vals(famCompress, mrWriteMBs, TS), rel: falls},
	{id: "F4", paper: "Fig. 4: AGG's HDFS disks are the busiest", vals: vals(famBase, hdfsUtil, AGG, TS, KM, PR), rel: above},
	{id: "F5.1", paper: "Fig. 5(a): HDFS %util is unchanged by memory", vals: vals(famMemory, hdfsUtil, TS), rel: flat, tol: 0.15, deviates: "+"},
	{id: "F5.2", paper: "Fig. 5(b): MR %util falls with memory for spill-heavy workloads", vals: vals(famMemory, mrUtil, PR), rel: falls},
	{id: "F6", paper: "Fig. 6: intermediate %util is unchanged where there is little to compress (AGG)", vals: vals(famCompress, mrUtil, AGG), rel: flat, tol: 0.15},
	{id: "F7", paper: "Fig. 7: waiting time is insensitive to slot count", vals: vals(famSlots, mrWait, TS), rel: flat, tol: 0.30},
	{id: "F8.1", paper: "Fig. 8: MR waiting time varies with memory", vals: vals(famMemory, mrWait, TS), rel: falls},
	{id: "F8.2", paper: "Fig. 8: MR await exceeds HDFS await", vals: append(vals(famMem16, mrAwait, TS), vals(famMem16, hdfsAwait, TS)...), rel: above},
	{id: "F9.1", paper: "Fig. 9(a): HDFS waiting time is unchanged by compression", vals: vals(famCompress, hdfsWait, TS), rel: flat, tol: 0.15},
	{id: "F9.2", paper: "Fig. 9(b): MR waiting time decreases with compression", vals: vals(famCompress, mrWait, KM), rel: falls},
	{id: "F10", paper: "Fig. 10: MR request size is insensitive to slots", vals: vals(famSlots, mrRqSz, TS), rel: flat, tol: 0.35},
	{id: "F11", paper: "Fig. 11: MR requests are larger than in Fig. 10(b), whose baseline is compressed", vals: append(vals(famMem16, mrRqSz, TS), vals(famBase, mrRqSz, TS)...), rel: above},
	{id: "F12.1", paper: "Fig. 12: compression shrinks MR request sizes", vals: vals(famCompress, mrRqSz, PR), rel: falls},
	{id: "F12.2", paper: "Fig. 12: AGG's MR request size barely moves", vals: vals(famCompress, mrRqSz, AGG), rel: flat, tol: 0.15},
	{id: "F12.3", paper: "Fig. 12: K-means' MR request size barely moves", vals: vals(famCompress, mrRqSz, KM), rel: flat, tol: 0.15, deviates: "−"},

	{id: "T3", paper: "Table 3: TS is I/O-bound, AGG and PR CPU-bound", vals: vals(famBase, cpuUtil, TS, AGG, PR), rel: below},
	{id: "T5", paper: "Table 5: peak HDFS read bandwidth is essentially identical across slots", vals: vals(famSlots, hdfsPeakRead, KM), rel: flat, tol: 0.15},
	{id: "T6.1", paper: "Table 6: AGG leads the HDFS busy fraction (AGG 22.6 %, KM 0.4 %, PR 0.5 % >90 %util)", vals: vals(famBase, hdfsUtil, AGG, KM, PR), rel: notBelow},
	{id: "T6.2", paper: "Table 6: AGG leads the HDFS busy fraction (AGG 22.6 %, TS 5.2 %, KM 0.4 %, PR 0.5 %)", vals: vals(famBase, hdfsAbove90, AGG, TS, KM, PR), rel: above},
	{id: "T7.1", paper: "Table 7: TS dominates the MR busy fraction (TS 27.2 %, all others 0.1 % >90 %util)", vals: vals(famBase, mrUtil, TS, KM, PR), rel: notBelow},
	{id: "T7.2", paper: "Table 7: TS dominates the MR busy fraction (TS 27.2 %, all others 0.1 %)", vals: vals(famBase, mrAbove90, TS, AGG, KM, PR), rel: above},
}

// outcome is a claim's values and its verdict: "reproduced" when the
// paper's relation holds, else the direction the values moved ("deviates +"
// or "deviates −") for a pair relation and "not reproduced" for an
// ordering.
type outcome struct {
	nums    []float64
	verdict string
}

// evaluate reads every value of c from s and judges the relation.
func evaluate(s *Suite, c claim) (outcome, error) {
	var v outcome
	var reps []*RunReport
	for _, x := range c.vals {
		rep, err := s.Run(x.w, x.f)
		if err != nil {
			return v, err
		}
		reps = append(reps, rep)
		v.nums = append(v.nums, x.p.read(rep))
	}
	a, rest := v.nums[0], v.nums[1:]
	var holds bool
	switch c.rel {
	case rises:
		holds = rest[0] > a
	case falls:
		holds = rest[0] < a
	case flat:
		allow := c.tol * math.Min(math.Abs(a), math.Abs(rest[0]))
		if c.perBackup {
			allow += speculativeSplits(reps)
		}
		holds = math.Abs(rest[0]-a) <= allow
	case above, notBelow, below:
		holds = true
		for _, b := range rest {
			holds = holds && (c.rel == above && a > b || c.rel == notBelow && a >= b || c.rel == below && a < b)
		}
	}
	switch {
	case holds:
		v.verdict = "reproduced"
	case c.rel.pair() && rest[0] > a:
		v.verdict = "deviates +"
	case c.rel.pair():
		v.verdict = "deviates −"
	default:
		v.verdict = "not reproduced"
	}
	return v, nil
}

// want is the verdict c expects.
func (c claim) want() string {
	if c.deviates != "" {
		return "deviates " + c.deviates
	}
	return "reproduced"
}

func TestClaims(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range claims {
		if seen[c.id] {
			t.Fatalf("claim %s listed twice", c.id)
		}
		seen[c.id] = true
		t.Run(c.id, func(t *testing.T) {
			v, err := evaluate(sharedSuite, c)
			if err != nil {
				t.Fatal(err)
			}
			if v.verdict != c.want() {
				t.Errorf("%s (%s): %s, want %s; %s: %s", c.paper, cellsText(c), v.verdict, c.want(), metricText(c), measuredText(c, v))
			}
		})
	}
}

const (
	claimsBegin = "<!-- claims:begin -->\n"
	claimsEnd   = "<!-- claims:end -->\n"
)

// TestClaimsMatchExperiments keeps EXPERIMENTS.md's claims block, between
// its markers, equal to the rendering of the rows. IOCHAR_UPDATE_GOLDEN=1
// rewrites the block and nothing else in the file.
func TestClaimsMatchExperiments(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	var buf strings.Builder
	buf.WriteString("| ID | The paper | Cells | Metric | Expected | Measured | Verdict |\n|---|---|---|---|---|---|---|\n")
	for _, c := range claims {
		v, err := evaluate(sharedSuite, c)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "| %s | %s | %s | %s | %s | %s | %s |\n",
			c.id, c.paper, cellsText(c), metricText(c), expectedText(c), measuredText(c, v), v.verdict)
	}
	got := buf.String()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok1 := strings.Cut(string(doc), claimsBegin)
	block, tail, ok2 := strings.Cut(rest, claimsEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s: no %q … %q block", path, strings.TrimSpace(claimsBegin), strings.TrimSpace(claimsEnd))
	}
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(head+claimsBegin+got+claimsEnd+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	gotLines, docLines := strings.Split(got, "\n"), strings.Split(block, "\n")
	for i := range max(len(gotLines), len(docLines)) {
		g, d := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(docLines) {
			d = docLines[i]
		}
		if g != d {
			t.Fatalf("%s's claims block differs from the rows at its line %d (regenerate with IOCHAR_UPDATE_GOLDEN=1):\n rows: %s\n file: %s", path, i+1, g, d)
		}
	}
}

// cellsText lists a claim's cells once each, in order.
func cellsText(c claim) string {
	var out []string
	for _, x := range c.vals {
		if l := x.label(); len(out) == 0 || out[len(out)-1] != l {
			out = append(out, l)
		}
	}
	sep := ", "
	if c.rel.pair() {
		sep = " → "
	}
	return strings.Join(out, sep)
}

// metricText names a claim's probes once each.
func metricText(c claim) string {
	var out []string
	for _, x := range c.vals {
		if len(out) == 0 || out[len(out)-1] != x.p.name {
			out = append(out, x.p.name)
		}
	}
	return strings.Join(out, " vs ")
}

func expectedText(c claim) string {
	var e string
	switch c.rel {
	case rises:
		e = "rises"
	case falls:
		e = "falls"
	case flat:
		e = fmt.Sprintf("flat within %g %%", c.tol*100)
		if c.perBackup {
			e += " + one split per speculative map"
		}
	case above:
		e = "first above the rest"
	case notBelow:
		e = "first not below the rest"
	case below:
		e = "first below the rest"
	}
	if c.deviates != "" {
		return fmt.Sprintf("deviates %s (paper: %s)", c.deviates, e)
	}
	return e
}

func measuredText(c claim, v outcome) string {
	num := func(x float64) string { return fmt.Sprintf("%.4g", x) }
	if c.rel.pair() {
		a, b := v.nums[0], v.nums[1]
		change := "±0 %"
		if a != 0 {
			change = fmt.Sprintf("%+.1f %%", (b-a)/a*100)
		}
		return fmt.Sprintf("%s → %s (%s)", num(a), num(b), change)
	}
	var rest []string
	for _, x := range v.nums[1:] {
		rest = append(rest, num(x))
	}
	return num(v.nums[0]) + " vs " + strings.Join(rest, ", ")
}
