package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"iochar/internal/compress"
)

func TestLayerOfBucketsStacks(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"runtime leaf under localfs", []string{"runtime.memmove", "runtime.growslice", "iochar/internal/localfs.(*File).Append", "iochar/internal/mapred.(*mapTask).spill", "iochar/internal/sim.(*Env).Go.func1"}, "localfs"},
		{"stdlib leaf under compress", []string{"compress/flate.(*compressor).deflate", "compress/flate.(*Writer).Write", "iochar/internal/compress.Deflate.Compress", "main.timingCodec.Compress", "iochar/internal/mapred.(*mapTask).spill"}, "compress"},
		{"strconv under a workload UDF", []string{"strconv.ParseFloat", "iochar/internal/workloads.parsePointInto", "iochar/internal/mapred.(*mapTask).run"}, "workloads"},
		{"folded package", []string{"iochar/internal/stats.(*Series).Add", "iochar/internal/iostat.(*Monitor).sampleAll"}, "iostat"},
		{"cluster folds into core", []string{"iochar/internal/cluster.(*Node).Compute", "main.stormWriter"}, "core"},
		{"benchmark driver frame", []string{"runtime.mallocgc", "main.genStorm"}, "core"},
		{"GC worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "go_gc"},
		{"background sweeper", []string{"runtime.(*mspan).sweep", "runtime.bgsweep"}, "go_gc"},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "go_sched"},
		{"unknown", []string{"os.(*File).Write", "bufio.(*Writer).Flush"}, "other"},
		{"empty", nil, "other"},
		{"mark assist is charged to the allocating layer", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "iochar/internal/hdfs.(*Writer).Write"}, "hdfs"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// A real profile of this process must parse into symbolized stacks.
func TestParseProfileSymbolizes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e6; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler delivered no samples in 300 ms")
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Errorf("sample with non-positive cpu time %d", s.value)
		}
		for _, fn := range s.stack {
			if strings.Contains(fn, "TestParseProfileSymbolizes") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample names the busy test function among %d samples", len(samples))
	}
	if _, _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("garbage must not parse")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", q)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q := quartiles([]float64{1, 2, 3}); q != [3]float64{1, 2, 3} {
		t.Errorf("quartiles(1..3) = %v", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if m := newStat("MB", "max", []float64{140, 163, 128}); m.Value != 163 || m.Median != 140 || m.Estimator != "max" {
		t.Errorf("max estimator = %v (median %v)", m.Value, m.Median)
	}
}

func TestResultRoundTripAndNameValidation(t *testing.T) {
	res := &result{Schema: resultSchema, Env: envBlock{Seed: 7, NumCPU: 2}, Workloads: []workloadResult{{
		Name: "ts_raw", OpsAttempted: 3,
		EndToEnd: map[string]stat{"host_wall_s": newStat("s", "median", []float64{1.5, 1.25, 1.75})},
		PerLayer: map[string]value{"sim.events": {Value: 42, Unit: "count"}},
	}}}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeJSON(path, res); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if !bytes.Contains(raw, []byte(`"claim": null`)) {
		t.Error("a measuring-only result must carry \"claim\": null")
	}
	back, err := loadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	w := back.workload("ts_raw")
	if w == nil || w.EndToEnd["host_wall_s"].Value != 1.5 || w.EndToEnd["host_wall_s"].N != 3 || w.PerLayer["sim.events"].Value != 42 || back.Env.Seed != 7 {
		t.Errorf("round trip lost data: %+v", back)
	}

	bad := func(mutate func(*result)) {
		t.Helper()
		r := &result{Schema: resultSchema, Workloads: []workloadResult{{Name: "w", EndToEnd: map[string]stat{}, PerLayer: map[string]value{}}}}
		mutate(r)
		if r.validate() == nil {
			t.Error("validate accepted a malformed result")
		}
	}
	bad(func(r *result) { r.Schema = 99 })
	bad(func(r *result) { r.Workloads = nil })
	bad(func(r *result) { r.Workloads[0].Name = "has space" })
	bad(func(r *result) { r.Workloads[0].EndToEnd["latency ms"] = stat{} })
	bad(func(r *result) { r.Workloads[0].PerLayer["_leading"] = value{} })
	bad(func(r *result) { r.Workloads[0].PerLayer[strings.Repeat("x", 65)] = value{} })
	bad(func(r *result) {
		for i := 0; i < 17; i++ {
			r.Workloads[0].EndToEnd[fmt.Sprintf("m%d", i)] = stat{}
		}
	})
	bad(func(r *result) {
		for i := 0; i < 129; i++ {
			r.Workloads[0].PerLayer[fmt.Sprintf("m%d", i)] = value{}
		}
	})
}

// BENCHMARK.json is written by hand; it must declare exactly what the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj, err := loadBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, program has %q (or the reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %s: name or reason outside the contract's limits", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: declared %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayerDefs) != 110 {
		t.Errorf("program declares %d per-layer metrics, the issue fixes 110", len(perLayerDefs))
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, program has %d", len(bj.PerLayer), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for i, d := range perLayerDefs {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, program has %+v", i, m, d)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) || len(d.Unit) > 16 {
			t.Errorf("%s: duplicate, or name or unit outside the contract's limits", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestStormDeterministicPerSeed(t *testing.T) {
	a := runStorm(genStorm(3), 3)
	b := runStorm(genStorm(3), 3)
	c := runStorm(genStorm(4), 4)
	for _, r := range []stormRun{a, b, c} {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.dirty != 0 || r.leaked != 0 || r.fileCount != 0 {
			t.Errorf("storm left %d dirty pages, %d leaked sectors, %d files", r.dirty, r.leaked, r.fileCount)
		}
	}
	if a.fingerprint() != b.fingerprint() {
		t.Errorf("same seed, different outcomes: %s vs %s", a.fingerprint(), b.fingerprint())
	}
	if a.fingerprint() == c.fingerprint() {
		t.Error("different seeds produced the same outcome: the seed does not reach the inputs")
	}
	if pl := genStorm(3); a.written != pl.appended {
		t.Errorf("localfs counted %d bytes, the plan appends %d", a.written, pl.appended)
	}
}

func TestTimingCodecPreservesBytes(t *testing.T) {
	inner := compress.NewDeflate()
	var st codecStats
	c := timingCodec{Codec: inner, st: &st} // nil tracer: spans are dropped
	src := bytes.Repeat([]byte("intermediate data, fairly repetitive. "), 500)
	enc := c.Compress(src)
	if !bytes.Equal(enc, inner.Compress(src)) {
		t.Error("wrapper changed the compressed bytes")
	}
	if !bytes.Equal(c.Decompress(enc), src) {
		t.Error("round trip through the wrapper lost bytes")
	}
	if c.Name() != inner.Name() || c.CompressCost(1000) != inner.CompressCost(1000) {
		t.Error("wrapper must leave the codec's name and cost model alone: they feed the simulation")
	}
	if st.compressCalls != 1 || st.decompressCalls != 1 || st.compressIn != uint64(len(src)) || st.compressOut != uint64(len(enc)) || st.decompressOut != uint64(len(src)) {
		t.Errorf("counts = %+v", st)
	}
}

func TestCompareAppliesBoundsAndExactCounters(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	decl, _ := json.Marshal(map[string]any{"end_to_end": []map[string]any{
		{"name": "host_wall_s", "unit": "s", "better": "lower", "bound": 0.10},
	}})
	if err := os.WriteFile(bench, decl, 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, seed int64, wall []float64, events float64) string {
		r := &result{Schema: resultSchema, Env: envBlock{Seed: seed}, Workloads: []workloadResult{{
			Name:     "w",
			EndToEnd: map[string]stat{"host_wall_s": newStat("s", "median", wall)},
			PerLayer: map[string]value{"sim.events": {Value: events, Unit: "count"}, "sim.cpu_s": {Value: wall[0], Unit: "s"}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("a.json", 1, []float64{1.00, 1.01, 1.02}, 500)
	cases := []struct {
		name   string
		b      string
		breach bool
		says   string
	}{
		{"same", mk("same.json", 1, []float64{1.02, 1.01, 1.03}, 500), false, "ok"},
		{"slower beyond the bound", mk("slow.json", 1, []float64{1.20, 1.21, 1.22}, 500), true, "BREACH"},
		{"noisy beyond the bound", mk("noisy.json", 1, []float64{0.9, 1.2, 1.6}, 500), false, "unresolved"},
		{"clearly faster", mk("fast.json", 1, []float64{0.5, 0.6, 0.7}, 500), false, "better"},
		{"simulation drifted", mk("drift.json", 1, []float64{1.00, 1.01, 1.02}, 501), true, "simulation counter sim.events"},
		{"other seed: counters not comparable", mk("seed2.json", 2, []float64{1.00, 1.01, 1.02}, 777), false, "seeds differ"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		breach, err := compareFiles(&out, bench, base, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if breach != c.breach || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: breach=%v, want %v and %q in:\n%s", c.name, breach, c.breach, c.says, out.String())
		}
	}
}

// The reference kernel is the yardstick host times are scaled by: it must do
// the same work every time, in every process.
func TestRefKernelIsFixedWork(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	if a.run() <= 0 || b.run() <= 0 {
		t.Fatal("a run must take measurable time")
	}
	first := append([]byte(nil), a.buf.Bytes()...)
	a.run()
	if len(first) == 0 || !bytes.Equal(first, a.buf.Bytes()) || !bytes.Equal(first, b.buf.Bytes()) {
		t.Error("the compressed output differs between runs or between kernels")
	}
	if len(first) > len(a.text)/2 {
		t.Errorf("the text compressed to %d of %d bytes: not the compressible kind the simulator's intermediate data is", len(first), len(a.text))
	}
	for i := 1; i < len(a.work); i++ {
		if bytes.Compare(a.work[i-1], a.work[i]) > 0 {
			t.Fatalf("keys not sorted at %d", i)
		}
	}
	var none *refKernel
	if none.run() != 0 {
		t.Error("a nil kernel must do nothing")
	}
}

func TestTracedIterationsCoverShortWorkloads(t *testing.T) {
	for _, c := range []struct {
		coldWallS float64
		want      int
	}{{0.45, 5}, {1.2, 2}, {5, 2}, {0.1, 8}, {0, 2}} {
		if got := tracedIterations(c.coldWallS); got != c.want {
			t.Errorf("tracedIterations(%v) = %d, want %d", c.coldWallS, got, c.want)
		}
	}
}
