package core

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/runcache"
	"iochar/internal/workloads"
)

// countingGen counts the parts it generates. Its value keys a part table as
// the generator it wraps does: one wrapper value per generator and counter.
type countingGen struct {
	gen workloads.Generator
	n   *atomic.Int64
}

func (g countingGen) Part(part int, size int64) []byte {
	g.n.Add(1)
	return g.gen.Part(part, size)
}

// countingInputs hands its table every generator wrapped in a countingGen.
type countingInputs struct {
	in workloads.Inputs
	n  *atomic.Int64
}

func (c countingInputs) Parts(gen workloads.Generator, n int, size int64) [][]byte {
	return c.in.Parts(countingGen{gen, c.n}, n, size)
}

// countingProgram is a workload whose Prepare loads through countingInputs.
type countingProgram struct {
	workloads.Workload
	n *atomic.Int64
}

func (c countingProgram) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in workloads.Inputs, bytes, seed int64) {
	c.Workload.Prepare(fs, cl, countingInputs{in, c.n}, bytes, seed)
}

// countGenerations makes every workload count the input parts it generates,
// for the rest of the test.
func countGenerations(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	saved := workloadTable
	t.Cleanup(func() { workloadTable = saved })
	for w, e := range saved {
		if e.program != nil {
			workloadTable[w].program = func() workloads.Workload { return countingProgram{e.program(), n} }
		}
	}
	return n
}

// TestSweepGeneratesEachPartOnce: a sweep generates every distinct input
// part once however many of its cells load it — one part per slave for each
// of the four workloads — and holds no input once it is done.
func TestSweepGeneratesEachPartOnce(t *testing.T) {
	n := countGenerations(t)
	want := int64(len(WorkloadOrder) * fastOpts.Slaves)
	figure, err := FigureCells(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, sweep := range map[string]func(*Suite) error{
		"RunAll":   func(s *Suite) error { return s.RunAll(context.Background()) },
		"figure 1": func(s *Suite) error { return s.Prewarm(context.Background(), figure) },
	} {
		n.Store(0)
		s := NewSuite(fastOpts, WithParallelism(2))
		if err := sweep(s); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != want {
			t.Errorf("%s generated %d parts, want %d, each once", name, got, want)
		}
		if len(s.inputs) != 0 {
			t.Errorf("%s left the inputs of %v behind", name, slices.Collect(maps.Keys(s.inputs)))
		}
	}
	// A cell outside a sweep generates its own.
	n.Store(0)
	if _, err := RunOne(AGG, SlotsRuns[0], fastOpts); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != int64(fastOpts.Slaves) {
		t.Errorf("RunOne generated %d parts, want %d", got, fastOpts.Slaves)
	}
}

// TestSweepDropsInputsWithLastCell: a workload's parts go as its last cell
// resolves, and a disk-cache hit resolves it. One worker takes the cells in
// list order, so when the next workload's first cell reports, the previous
// workload's table must be gone.
func TestSweepDropsInputsWithLastCell(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewSuite(tinyOpts, WithCacheDir(dir)).Run(AGG, SlotsRuns[1]); err != nil {
		t.Fatal(err)
	}
	type event struct {
		w    Workload
		src  RunSource
		live []Workload // workloads holding inputs when the cell reported
	}
	var (
		s      *Suite
		events []event
	)
	s = NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(func(ev ProgressEvent) {
		s.mu.Lock()
		defer s.mu.Unlock()
		events = append(events, event{ev.Workload, ev.Source, slices.Sorted(maps.Keys(s.inputs))})
	}))
	cells := []Cell{{AGG, SlotsRuns[0]}, {AGG, SlotsRuns[1]}, {TS, SlotsRuns[0]}}
	if err := s.Prewarm(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{AGG, SourceExecuted, []Workload{TS, AGG}},
		{AGG, SourceDisk, []Workload{TS, AGG}},
		{TS, SourceExecuted, []Workload{TS}},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events %v, want %v", events, want)
	}
	if len(s.inputs) != 0 {
		t.Errorf("inputs of %v left after the sweep", slices.Collect(maps.Keys(s.inputs)))
	}
}

// TestSharedInputCorruptionStaysPrivate: two cells of one workload load one
// table on two workers, one of them under a plan that corrupts a block of
// that input. The other must match its solo run exactly: Corrupt flips a
// copy, never the bytes the table handed out.
func TestSharedInputCorruptionStaysPrivate(t *testing.T) {
	opts := tinyOpts
	opts.Audit = true
	faulted := opts
	var err error
	if faulted.Faults, err = faults.ParsePlan("corrupt-block@1ms:path=/bench/TS/in/part-00000"); err != nil {
		t.Fatal(err)
	}
	solo, err := RunOne(TS, SlotsRuns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	in := workloads.NewPartTable()
	var (
		wg          sync.WaitGroup
		shared, hit *RunReport
		errA, errB  error
	)
	wg.Add(2)
	go func() { defer wg.Done(); hit, errA = runOne(context.Background(), TS, SlotsRuns[0], faulted, in) }()
	go func() { defer wg.Done(); shared, errB = runOne(context.Background(), TS, SlotsRuns[0], opts, in) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(hit.FaultsInjected) != 1 {
		t.Fatalf("faulted cell fired %v, want the one corrupt-block", hit.FaultsInjected)
	}
	// And once more after the corruption has certainly happened.
	after, err := runOne(context.Background(), TS, SlotsRuns[0], opts, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*RunReport{"beside the faulted cell": shared, "after it": after} {
		if !maps.Equal(rep.Audit.OutputSums, solo.Audit.OutputSums) {
			t.Errorf("%s: output sums %v, solo %v", name, rep.Audit.OutputSums, solo.Audit.OutputSums)
		}
		if reportJSON(t, rep) != reportJSON(t, solo) {
			t.Errorf("%s: report differs from the solo run", name)
		}
	}
}

// TestCacheEntryIsTheEnvelopeMarshal: a stored report is byte for byte what
// the run cache wrote when it marshalled its envelope whole, so caches
// written before it framed the payload itself still hit.
func TestCacheEntryIsTheEnvelopeMarshal(t *testing.T) {
	dir := t.TempDir()
	rep, err := NewSuite(tinyOpts, WithCacheDir(dir)).Run(KM, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	key, err := runcache.Key(keyMaterial(KM, SlotsRuns[0], NewSuite(tinyOpts).Opts))
	if err != nil {
		t.Fatal(err)
	}
	store, err := runcache.Open(dir, SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(rep)
	want, _ := json.Marshal(struct {
		Version int             `json:"version"`
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}{SchemaVersion, key, payload})
	if string(got) != string(want) {
		t.Errorf("cache entry (%d bytes) differs from the envelope marshal (%d bytes)", len(got), len(want))
	}
	var back RunReport
	if !store.Get(key, &back) || reportJSON(t, &back) != reportJSON(t, rep) {
		t.Error("entry does not read back as the report")
	}
}
