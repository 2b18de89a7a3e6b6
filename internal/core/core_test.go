package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"iochar/internal/faults"
)

// fastOpts is a deliberately small testbed so the full observation suite
// stays in seconds. Shape assertions below are loose on purpose: they
// encode the paper's qualitative findings, not point estimates.
var fastOpts = Options{
	Scale:         32768,
	Slaves:        5,
	MapTaskTarget: 48,
	Seed:          1,
}

// sharedSuite caches cells across the tests in this package.
var sharedSuite = NewSuite(fastOpts)

func mustRun(t *testing.T, wkey Workload, f Factors) *RunReport {
	t.Helper()
	rep, err := sharedSuite.Run(wkey, f)
	if err != nil {
		t.Fatalf("%s: %v", wkey, err)
	}
	return rep
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1024 || o.Slaves != 10 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if o.SampleInterval <= 0 {
		t.Error("sample interval not defaulted")
	}
	if o.InputFraction != 1 {
		t.Errorf("InputFraction = %f", o.InputFraction)
	}
}

func TestSampleIntervalScalesWithScale(t *testing.T) {
	small := Options{Scale: 64}.withDefaults().SampleInterval
	big := Options{Scale: 8192}.withDefaults().SampleInterval
	if small != time.Second {
		t.Errorf("scale-64 interval = %v, want 1s", small)
	}
	if big >= small {
		t.Error("interval must shrink with scale")
	}
}

func TestRunOneProducesWellFormedReport(t *testing.T) {
	rep := mustRun(t, TS, SlotsRuns[0])
	if rep.Workload != TS {
		t.Errorf("Workload = %s", rep.Workload)
	}
	if len(rep.Jobs) != 1 {
		t.Errorf("jobs = %d, want 1", len(rep.Jobs))
	}
	if rep.Wall <= 0 {
		t.Error("no virtual runtime")
	}
	if rep.HDFS == nil || rep.MR == nil {
		t.Fatal("missing iostat reports")
	}
	if rep.HDFS.Util.Len() < 10 {
		t.Errorf("only %d samples; interval not scaled?", rep.HDFS.Util.Len())
	}
	if rep.HDFS.TotalReadBytes == 0 {
		t.Error("no HDFS reads recorded")
	}
	if rep.MR.TotalWrittenBytes == 0 {
		t.Error("no intermediate writes recorded")
	}
}

func TestRunOneInvalidWorkload(t *testing.T) {
	if _, err := RunOne(Workload(99), SlotsRuns[0], fastOpts); err == nil {
		t.Error("want error")
	}
	if _, err := RunOne(Workload(0), SlotsRuns[0], fastOpts); err == nil {
		t.Error("zero Workload must be rejected")
	}
}

func TestSuiteCachesCells(t *testing.T) {
	s := NewSuite(fastOpts)
	if _, err := s.Run(KM, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	n := s.CachedRuns()
	if _, err := s.Run(KM, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if s.CachedRuns() != n {
		t.Error("repeat run was not cached")
	}
}

func TestDeterministicAcrossSuites(t *testing.T) {
	a, err := RunOne(AGG, SlotsRuns[0], fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	b := mustRun(t, AGG, SlotsRuns[0])
	if a.Wall != b.Wall {
		t.Errorf("runtime differs across identical runs: %v vs %v", a.Wall, b.Wall)
	}
	if a.HDFS.TotalReadBytes != b.HDFS.TotalReadBytes {
		t.Errorf("HDFS bytes differ: %d vs %d", a.HDFS.TotalReadBytes, b.HDFS.TotalReadBytes)
	}
}

// --- The paper's four concluding observations, as assertions. ---

// Observation 1: task slots leave the four I/O metrics essentially
// unchanged.
func TestObservation1SlotsLeaveIOMetricsUnchanged(t *testing.T) {
	for _, wkey := range []Workload{AGG, TS} {
		a := mustRun(t, wkey, SlotsRuns[0])
		b := mustRun(t, wkey, SlotsRuns[1])
		within := func(name string, x, y, tol float64) {
			if x == 0 && y == 0 {
				return
			}
			if d := math.Abs(x-y) / math.Max(x, y); d > tol {
				t.Errorf("%s %s drifts %.0f%% across slot configs (%.2f vs %.2f)", wkey, name, d*100, x, y)
			}
		}
		within("HDFS read MB/s", a.HDFS.RMBs.Mean(), b.HDFS.RMBs.Mean(), 0.30)
		within("HDFS %util", a.HDFS.Util.Mean(), b.HDFS.Util.Mean(), 0.30)
		within("HDFS avgrq-sz", a.HDFS.AvgrqSz.MeanNonzero(), b.HDFS.AvgrqSz.MeanNonzero(), 0.35)
	}
}

// Observation 2: more memory reduces the number of I/O requests and eases
// intermediate-disk pressure (spill-heavy TS), and raises HDFS read
// bandwidth for large inputs.
func TestObservation2MemoryReducesIO(t *testing.T) {
	lo := mustRun(t, TS, MemoryRuns[0])
	hi := mustRun(t, TS, MemoryRuns[1])
	loReq := lo.MR.TotalReads + lo.MR.TotalWrites
	hiReq := hi.MR.TotalReads + hi.MR.TotalWrites
	if hiReq >= loReq {
		t.Errorf("MR requests did not fall with memory: %d -> %d", loReq, hiReq)
	}
	if hi.MR.Util.Mean() >= lo.MR.Util.Mean() {
		t.Errorf("MR util did not fall with memory: %.1f -> %.1f", lo.MR.Util.Mean(), hi.MR.Util.Mean())
	}
	if hi.HDFS.RMBs.Mean() <= lo.HDFS.RMBs.Mean() {
		t.Errorf("HDFS read bandwidth did not rise with memory: %.1f -> %.1f",
			lo.HDFS.RMBs.Mean(), hi.HDFS.RMBs.Mean())
	}
	// Small-output workloads see little write-side change (paper: K-means).
	kmLo := mustRun(t, KM, MemoryRuns[0])
	kmHi := mustRun(t, KM, MemoryRuns[1])
	_ = kmLo
	_ = kmHi
}

// Observation 3: compression shrinks MapReduce intermediate I/O but leaves
// HDFS I/O (bytes moved) untouched.
func TestObservation3CompressionIsMapReduceOnly(t *testing.T) {
	off := mustRun(t, TS, CompressRuns[0])
	on := mustRun(t, TS, CompressRuns[1])
	if on.MR.TotalWrittenBytes >= off.MR.TotalWrittenBytes {
		t.Errorf("compression did not shrink intermediate writes: %d -> %d",
			off.MR.TotalWrittenBytes, on.MR.TotalWrittenBytes)
	}
	if on.MR.AvgrqSz.MeanNonzero() >= off.MR.AvgrqSz.MeanNonzero() {
		t.Errorf("compression did not shrink MR avgrq-sz: %.0f -> %.0f",
			off.MR.AvgrqSz.MeanNonzero(), on.MR.AvgrqSz.MeanNonzero())
	}
	// HDFS data is never compressed: what the job asked HDFS for — map input
	// read, reduce output written — is identical by construction.
	onJob, offJob := on.Jobs[0], off.Jobs[0]
	if onJob.MapInputBytes != offJob.MapInputBytes || onJob.ReduceOutputBytes != offJob.ReduceOutputBytes {
		t.Errorf("compression changed what the job asked HDFS for: in %d vs %d, out %d vs %d",
			offJob.MapInputBytes, onJob.MapInputBytes, offJob.ReduceOutputBytes, onJob.ReduceOutputBytes)
	}
	// Device-level reads may differ only by what timing can change: a
	// speculative backup map re-reads its split chunk by chunk until the
	// original wins — at most one split per backup (LZ, seed 1: 3 backups
	// with compression on, none off, 1,024,000 extra bytes) — plus sub-percent
	// readahead/eviction drift.
	split := float64(offJob.MapInputBytes) / float64(offJob.MapTasks)
	bound := 0.01*float64(off.HDFS.TotalReadBytes) +
		split*float64(onJob.SpeculativeAttempts+offJob.SpeculativeAttempts)
	if drift := math.Abs(float64(on.HDFS.TotalReadBytes) - float64(off.HDFS.TotalReadBytes)); drift > bound {
		t.Errorf("compression changed HDFS read volume by %.0f bytes (%d vs %d), more than %.0f: 1%% plus one split per speculative backup (%d on, %d off)",
			drift, off.HDFS.TotalReadBytes, on.HDFS.TotalReadBytes, bound, onJob.SpeculativeAttempts, offJob.SpeculativeAttempts)
	}
}

// Observation 4: HDFS I/O is large-sequential, MapReduce intermediate I/O
// small-random — avgrq-sz tells them apart for every workload with real
// intermediate traffic.
func TestObservation4AccessPatternContrast(t *testing.T) {
	for _, wkey := range []Workload{TS, KM, PR} {
		rep := mustRun(t, wkey, SlotsRuns[0])
		h := rep.HDFS.AvgrqSz.MeanNonzero()
		m := rep.MR.AvgrqSz.MeanNonzero()
		if m == 0 {
			continue // negligible intermediate traffic at this scale
		}
		if h <= m {
			t.Errorf("%s: HDFS avgrq-sz %.0f not above MapReduce %.0f", wkey, h, m)
		}
	}
}

// Table 6/7 shape: AGG leads HDFS busy fractions; TS leads MapReduce's.
func TestTablesBusyFractionOrdering(t *testing.T) {
	reps := map[Workload]*RunReport{}
	for _, wkey := range WorkloadOrder {
		reps[wkey] = mustRun(t, wkey, SlotsRuns[0])
	}
	aggBusy := reps[AGG].HDFS.Util.Mean()
	tsBusyMR := reps[TS].MR.Util.Mean()
	for _, wkey := range []Workload{KM, PR} {
		if got := reps[wkey].HDFS.Util.Mean(); got > aggBusy {
			t.Errorf("HDFS mean util: %s (%.2f) above AGG (%.2f)", wkey, got, aggBusy)
		}
		if got := reps[wkey].MR.Util.Mean(); got > tsBusyMR {
			t.Errorf("MR mean util: %s (%.2f) above TS (%.2f)", wkey, got, tsBusyMR)
		}
	}
}

func TestFigureDataShape(t *testing.T) {
	fd, err := sharedSuite.Figure(10)
	if err != nil {
		t.Fatal(err)
	}
	if fd.ID != 10 || len(fd.Panels) != 2 {
		t.Fatalf("figure 10: %d panels", len(fd.Panels))
	}
	for _, p := range fd.Panels {
		if len(p.Rows) != 8 { // 4 workloads x 2 factor levels
			t.Errorf("panel %q has %d rows, want 8", p.Title, len(p.Rows))
		}
		for _, r := range p.Rows {
			if r.Series == nil || r.Series.Len() == 0 {
				t.Errorf("row %s has no series", r.Label)
			}
		}
	}
}

func TestBandwidthFigureHasReadAndWritePanels(t *testing.T) {
	fd, err := sharedSuite.Figure(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Panels) != 2 { // MR read + MR write
		t.Fatalf("figure 3: %d panels, want 2", len(fd.Panels))
	}
}

func TestUnknownFigureAndTable(t *testing.T) {
	if _, err := sharedSuite.Figure(13); err == nil {
		t.Error("figure 13 should error")
	}
	if _, err := sharedSuite.Table(4); err == nil {
		t.Error("table 4 should error (configuration table)")
	}
}

func TestTable5Shape(t *testing.T) {
	td, err := sharedSuite.Table(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 4 || len(td.Header) != 3 {
		t.Fatalf("table 5: %dx%d", len(td.Rows), len(td.Header))
	}
}

func TestTables67Shape(t *testing.T) {
	for _, n := range []int{6, 7} {
		td, err := sharedSuite.Table(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(td.Rows) != 3 {
			t.Errorf("table %d: %d rows, want 3 thresholds", n, len(td.Rows))
		}
		for _, row := range td.Rows {
			if len(row) != 5 { // label + 4 workloads
				t.Errorf("table %d row %v: %d cells", n, row[0], len(row))
			}
		}
	}
}

func TestFactorLabel(t *testing.T) {
	f := Factors{Slots: Slots2x16, MemoryGB: 16, Compress: true}
	cases := map[string]string{"slots": "2_16", "memory": "16G", "compress": "on"}
	for fam, want := range cases {
		if got := FactorLabel(fam, f); got != want {
			t.Errorf("FactorLabel(%s) = %s, want %s", fam, got, want)
		}
	}
	if FactorLabel("bogus", f) != "?" {
		t.Error("unknown family should be ?")
	}
}

func TestLabelMatchesPaperNaming(t *testing.T) {
	f := Factors{Slots: Slots1x8}
	if got := f.Label(AGG); got != "AGG_1_8" {
		t.Errorf("Label = %s", got)
	}
}

func TestBlockBytesBounds(t *testing.T) {
	o := fastOpts.withDefaults()
	bs := o.blockBytes()
	if bs < 64<<10 {
		t.Errorf("block %d below floor", bs)
	}
	if bs%4096 != 0 {
		t.Errorf("block %d not page aligned", bs)
	}
}

func TestAttributionShapes(t *testing.T) {
	agg, err := sharedSuite.Attribution(AGG, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sharedSuite.Attribution(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	// AGG is dominated by its input scan; TS spreads I/O across the whole
	// pipeline (the paper's "major source of I/O demand" future work).
	if float64(agg.HDFSInputRead) < 0.7*float64(agg.Total()) {
		t.Errorf("AGG input share = %.2f, want > 0.7", float64(agg.HDFSInputRead)/float64(agg.Total()))
	}
	if agg.MRShare() >= ts.MRShare() {
		t.Errorf("intermediate share: AGG %.2f should be below TS %.2f", agg.MRShare(), ts.MRShare())
	}
	if ts.SpillWrite == 0 || ts.ShuffleRead == 0 {
		t.Error("TS attribution missing pipeline stages")
	}
	// Conservation: shuffle read can never exceed what the maps produced.
	if ts.ShuffleRead > ts.SpillWrite+ts.MergeWrite {
		t.Errorf("shuffle read %d exceeds produced map output %d", ts.ShuffleRead, ts.SpillWrite+ts.MergeWrite)
	}
}

func TestAttributionTableShape(t *testing.T) {
	td, err := sharedSuite.AttributionTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 8 {
		t.Errorf("rows = %d, want 8 stages", len(td.Rows))
	}
	for _, row := range td.Rows {
		if len(row) != 5 {
			t.Errorf("row %q has %d cells", row[0], len(row))
		}
	}
}

// Table 3: the CPU-bound vs I/O-bound classification, measured rather than
// asserted — AGG keeps the cores busier than TS (CPU-bound), while TS keeps
// the intermediate disks busier than anyone (I/O-bound).
func TestTable3BottleneckClassification(t *testing.T) {
	agg := mustRun(t, AGG, SlotsRuns[0])
	ts := mustRun(t, TS, SlotsRuns[0])
	pr := mustRun(t, PR, SlotsRuns[0])
	if agg.CPUUtil == nil || agg.CPUUtil.Len() == 0 {
		t.Fatal("no CPU samples")
	}
	if agg.CPUUtil.Mean() <= ts.CPUUtil.Mean() {
		t.Errorf("CPU util: AGG %.1f should exceed TS %.1f (CPU-bound vs I/O-bound)",
			agg.CPUUtil.Mean(), ts.CPUUtil.Mean())
	}
	if pr.CPUUtil.Mean() <= ts.CPUUtil.Mean() {
		t.Errorf("CPU util: PR %.1f should exceed TS %.1f", pr.CPUUtil.Mean(), ts.CPUUtil.Mean())
	}
}

// Failure injection: a single degraded intermediate disk must slow the
// whole TeraSort job (speculative map execution softens but cannot remove
// the hit — the straggler disk also serves shuffle reads) and inflate the
// iostat await signature an operator would diagnose with.
func TestSlowDiskPlanVisibleEndToEnd(t *testing.T) {
	healthy := mustRun(t, TS, SlotsRuns[0])
	opts := fastOpts
	var err error
	if opts.Faults, err = faults.ParsePlan("slow-disk@1ns:node=slave-00,disk=mr0,factor=8"); err != nil {
		t.Fatal(err)
	}
	degraded, err := RunOne(TS, SlotsRuns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Wall <= healthy.Wall*6/5 {
		t.Errorf("degraded run %v not meaningfully slower than healthy %v", degraded.Wall, healthy.Wall)
	}
	// The straggler's slow requests inflate the group's mean await — the
	// iostat signature an operator would chase.
	if degraded.MR.AwaitMs.MeanNonzero() <= healthy.MR.AwaitMs.MeanNonzero() {
		t.Errorf("degraded MR await %.2f not above healthy %.2f",
			degraded.MR.AwaitMs.MeanNonzero(), healthy.MR.AwaitMs.MeanNonzero())
	}
}

// settledGoroutines counts goroutines once the count has stopped moving: a
// process goroutine signals its exit a few instructions before it is gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; stable++ {
		time.Sleep(100 * time.Microsecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		}
	}
	return n
}

// cancelAfter reports cancellation from its nth Err poll on, so a run is
// abandoned at the same event every time.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// A testbed's daemons never finish and a cancelled run strands every
// process; RunOne must unwind both, or a sweep accumulates one testbed's
// goroutines (and everything they reference) per cell.
func TestRunOneLeavesNoGoroutines(t *testing.T) {
	var first int
	for i := 0; i < 5; i++ {
		if _, err := RunOne(TS, SlotsRuns[0], tinyOpts); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = settledGoroutines()
		}
	}
	if n := settledGoroutines(); n != first {
		t.Errorf("%d goroutines after five runs, %d after the first", n, first)
	}
	ctx := &cancelAfter{Context: context.Background(), polls: 20}
	if _, err := RunOneContext(ctx, TS, SlotsRuns[0], tinyOpts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the run cancelled mid-flight", err)
	}
	if n := settledGoroutines(); n != first {
		t.Errorf("%d goroutines after a cancelled run, %d after a completed one", n, first)
	}
}
