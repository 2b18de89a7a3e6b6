package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/trace"
)

// TestRunWithHistogramsAndStreamTrace runs one cell with a live streaming
// trace sink attached and checks what the run derives from its disk log:
// each group's histograms, the physical per-stage table, and a trace
// byte-identical to the one the live sink streamed.
func TestRunWithHistogramsAndStreamTrace(t *testing.T) {
	var live bytes.Buffer
	sink := trace.NewStreamCollector(&live)
	opts := tinyOpts
	opts.TraceAttach = func(dev string, d *disk.Disk) { sink.Attach(d, dev) }
	rep, err := RunOne(TS, SlotsRuns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("stream sink observed no requests")
	}

	for _, gr := range []struct {
		name string
		h    *iostat.Hists
	}{{"HDFS", rep.HDFS.Hists}, {"MR", rep.MR.Hists}} {
		if gr.h == nil || gr.h.Requests == 0 {
			t.Fatalf("%s histograms missing or empty", gr.name)
		}
		p50, p95, p99 := gr.h.Await.Quantile(0.50), gr.h.Await.Quantile(0.95), gr.h.Await.Quantile(0.99)
		if !(p50 > 0 && p50 <= p95 && p95 <= p99) {
			t.Errorf("%s await quantiles not monotone: p50=%g p95=%g p99=%g", gr.name, p50, p95, p99)
		}
	}
	pa := rep.Log.Physical()
	var physReqs uint64
	for st := 0; st < disk.NumStages; st++ {
		physReqs += pa.Reads[st] + pa.Writes[st]
	}
	if physReqs != uint64(sink.Len()) {
		t.Errorf("physical attribution counted %d requests, the live sink %d", physReqs, sink.Len())
	}
	if pa.Reads[disk.StageHDFS]+pa.Writes[disk.StageHDFS] == 0 {
		t.Error("no requests attributed to the HDFS stage")
	}

	var fromLog bytes.Buffer
	logSink := trace.NewStreamCollector(&fromLog)
	rep.Log.WriteTrace(logSink, "")
	if err := logSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromLog.Bytes(), live.Bytes()) {
		t.Errorf("trace from the run's log (%d bytes) differs from the live stream (%d bytes)", fromLog.Len(), live.Len())
	}
}

// TestHistogramsSurviveJSONRoundTrip guards the run cache: a report with
// histograms must serialize and deserialize without losing distribution
// state (quantiles are derived from the bucket counts alone).
func TestHistogramsSurviveJSONRoundTrip(t *testing.T) {
	rep, err := RunOne(TS, SlotsRuns[0], tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	h, g := rep.HDFS.Hists, back.HDFS.Hists
	if g == nil {
		t.Fatal("Hists lost in round trip")
	}
	if g.Requests != h.Requests {
		t.Errorf("Requests = %d after round trip, want %d", g.Requests, h.Requests)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := g.Await.Quantile(q), h.Await.Quantile(q); got != want {
			t.Errorf("Await q%.0f = %g after round trip, want %g", q*100, got, want)
		}
	}
	if got, want := reportJSON(t, &back), string(b); got != want {
		t.Error("re-marshalled report differs; round trip is lossy")
	}
}

// TestLatencyTableServedFromCache: every run fills its histograms, so a
// cell cached by a suite that never asked for them answers LatencyTable
// from disk without simulating anything.
func TestLatencyTableServedFromCache(t *testing.T) {
	dir := t.TempDir()
	var cells []Cell
	for _, w := range WorkloadOrder {
		cells = append(cells, Cell{w, SlotsRuns[0]})
	}
	if err := NewSuite(tinyOpts, WithCacheDir(dir), WithParallelism(2)).Prewarm(context.Background(), cells); err != nil {
		t.Fatal(err)
	}

	var warm countingProgress
	td, err := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(warm.fn)).LatencyTable()
	if err != nil {
		t.Fatal(err)
	}
	if warm.executed.Load() != 0 || warm.disk.Load() != int64(len(cells)) {
		t.Errorf("LatencyTable: executed=%d disk=%d, want %d disk hits", warm.executed.Load(), warm.disk.Load(), len(cells))
	}
	perWorkload := map[string]int{}
	for _, row := range td.Rows {
		perWorkload[row[0]]++
	}
	for _, w := range WorkloadOrder {
		// Two groups x three metrics per workload.
		if perWorkload[w.String()] != 6 {
			t.Errorf("workload %s has %d rows, want 6", w, perWorkload[w.String()])
		}
	}
}
