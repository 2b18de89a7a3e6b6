package core

import (
	"context"
	"errors"
	"fmt"
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

// Regression: fewer slaves than HDFS's replication factor panicked in
// hdfs.New ("fewer datanodes than the replication factor") instead of
// returning an error.
func TestTooFewSlavesIsAnError(t *testing.T) {
	for _, n := range []int{1, 2} {
		opts := fastOpts
		opts.Slaves = n
		rep, err := RunOne(TS, SlotsRuns[0], opts)
		if err == nil || rep != nil || err.Error() != fmt.Sprintf("core: %d slaves cannot hold HDFS's 3 replicas of a block (need at least 3)", n) {
			t.Errorf("%d slaves: %v, %v; want the replication error", n, rep, err)
		}
	}
	if err := CheckSlaves(3); err != nil {
		t.Errorf("3 slaves: %v", err)
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
	cases := map[string]struct {
		fam  family
		want string
	}{"slots": {famSlots, "2_16"}, "memory": {famMemory, "16G"}, "compress": {famCompress, "on"}}
	for name, c := range cases {
		if got := c.fam.label(f); got != c.want {
			t.Errorf("%s label = %s, want %s", name, got, c.want)
		}
	}
	if got := famCompress.label(Factors{}); got != "off" {
		t.Errorf("compress label of an uncompressed cell = %s, want off", got)
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
