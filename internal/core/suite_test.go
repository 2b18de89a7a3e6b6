package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/runcache"
	"iochar/internal/sim"
)

// tinyOpts is the smallest testbed that still exercises the full pipeline —
// executor tests below run many cells and care about scheduling, not shape.
var tinyOpts = Options{Scale: 262144, Slaves: 3, MapTaskTarget: 8}

// reportJSON canonicalizes a report for equality checks: byte-identical
// JSON means byte-identical figures, since rendering reads only these
// fields.
func reportJSON(t *testing.T, rep *RunReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// countingProgress tallies progress events by source, concurrency-safely.
type countingProgress struct {
	executed atomic.Int64
	disk     atomic.Int64
}

func (c *countingProgress) fn(ev ProgressEvent) {
	switch ev.Source {
	case SourceExecuted:
		c.executed.Add(1)
	case SourceDisk:
		c.disk.Add(1)
	}
}

// TestSuiteSingleflightDedup drives one cell from many goroutines at once:
// exactly one execution may happen, everyone shares its report. Run under
// -race this is also the concurrency-safety test for the Suite cache the
// old implementation lacked.
func TestSuiteSingleflightDedup(t *testing.T) {
	var prog countingProgress
	s := NewSuite(tinyOpts, WithParallelism(4), WithProgress(prog.fn))
	const callers = 8
	var wg sync.WaitGroup
	reps := make([]*RunReport, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = s.Run(KM, SlotsRuns[0])
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if reps[i] != reps[0] {
			t.Errorf("caller %d got a different report instance", i)
		}
	}
	if got := prog.executed.Load(); got != 1 {
		t.Errorf("cell executed %d times, want exactly 1 (singleflight)", got)
	}
	if s.CachedRuns() != 1 {
		t.Errorf("CachedRuns = %d", s.CachedRuns())
	}
}

// TestSuiteConcurrentDistinctCells exercises the executor's worker pool
// with more cells than workers, from concurrent callers — the -race test
// for a Suite shared across goroutines.
func TestSuiteConcurrentDistinctCells(t *testing.T) {
	s := NewSuite(tinyOpts, WithParallelism(2))
	cells, err := FigureCells(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if s.CachedRuns() != len(cells) {
		t.Errorf("CachedRuns = %d, want %d", s.CachedRuns(), len(cells))
	}
}

// TestParallelMatchesSequential pins the determinism contract at the report
// level: the same cell resolved under a parallel sweep is byte-identical to
// a sequential standalone execution.
func TestParallelMatchesSequential(t *testing.T) {
	par := NewSuite(tinyOpts, WithParallelism(4))
	cells := []Cell{
		{TS, SlotsRuns[0]}, {AGG, SlotsRuns[0]},
		{TS, MemoryRuns[1]}, {KM, SlotsRuns[1]},
	}
	if err := par.Prewarm(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		seq, err := RunOne(c.Workload, c.Factors, tinyOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Run(c.Workload, c.Factors)
		if err != nil {
			t.Fatal(err)
		}
		if reportJSON(t, got) != reportJSON(t, seq) {
			t.Errorf("%s: parallel report differs from sequential", c.Factors.cacheKey(c.Workload))
		}
	}
}

// TestDiskCacheRoundTrip: a second suite over the same cache directory must
// serve every cell from disk, byte-identical to the executed original.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var cold countingProgress
	a := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(cold.fn))
	repA, err := a.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if cold.executed.Load() != 1 || cold.disk.Load() != 0 {
		t.Fatalf("cold run: executed=%d disk=%d", cold.executed.Load(), cold.disk.Load())
	}

	var warm countingProgress
	b := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(warm.fn))
	repB, err := b.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if warm.executed.Load() != 0 || warm.disk.Load() != 1 {
		t.Errorf("warm run: executed=%d disk=%d, want pure disk hit",
			warm.executed.Load(), warm.disk.Load())
	}
	if reportJSON(t, repA) != reportJSON(t, repB) {
		t.Error("disk round trip changed the report")
	}
	// The typed fields must survive serialization, not just compare equal.
	if repB.Workload != TS || repB.HDFS.TotalReadBytes == 0 || repB.CPUUtil.Len() == 0 {
		t.Errorf("deserialized report lost data: %+v", repB.Workload)
	}
}

// TestDiskCacheCorruptionReExecutes is the end-to-end corruption story: a
// truncated entry is re-executed (never a panic, never a wrong figure) and
// the slot is rewritten valid.
func TestDiskCacheCorruptionReExecutes(t *testing.T) {
	dir := t.TempDir()
	a := NewSuite(tinyOpts, WithCacheDir(dir))
	repA, err := a.Run(AGG, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	// Truncate every entry in the cache directory.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir entries=%d err=%v", len(entries), err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b[:len(b)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var prog countingProgress
	b := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(prog.fn))
	repB, err := b.Run(AGG, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if prog.executed.Load() != 1 || prog.disk.Load() != 0 {
		t.Errorf("corrupt entry not re-executed: executed=%d disk=%d",
			prog.executed.Load(), prog.disk.Load())
	}
	if reportJSON(t, repA) != reportJSON(t, repB) {
		t.Error("re-executed report differs from the original")
	}
	// The slot must now be valid again: a third suite hits disk.
	var prog2 countingProgress
	c := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(prog2.fn))
	if _, err := c.Run(AGG, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if prog2.disk.Load() != 1 {
		t.Error("corrupt entry was not rewritten after re-execution")
	}
}

// TestDiskCacheSchemaVersionMismatch: entries written by another schema
// version must be invisible, not deserialized.
func TestDiskCacheSchemaVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	a := NewSuite(tinyOpts, WithCacheDir(dir))
	if _, err := a.Run(KM, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry under a stale version, as a pre-bump binary would
	// have left it (same key, older envelope version).
	staleStore, err := runcache.Open(dir, SchemaVersion-1)
	if err != nil {
		t.Fatal(err)
	}
	key, err := runcache.Key(keyMaterial(KM, SlotsRuns[0], NewSuite(tinyOpts).Opts))
	if err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	cur, _ := runcache.Open(dir, SchemaVersion)
	if !cur.Get(key, &rep) {
		t.Fatal("entry missing under the computed key — key material drifted?")
	}
	if err := staleStore.Put(key, &rep); err != nil {
		t.Fatal(err)
	}
	var prog countingProgress
	b := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(prog.fn))
	if _, err := b.Run(KM, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if prog.executed.Load() != 1 {
		t.Error("stale-version entry was served instead of re-executing")
	}
}

// TestFaultedDiskCacheRoundTrip: a faulted, audited run persists and reloads
// byte-identically — and lands in a different cache slot than the fault-free
// configuration, so a faulted report can never be served for (or poison) a
// healthy request.
func TestFaultedDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts
	var err error
	opts.Faults, err = faults.ParsePlan(killPlan)
	if err != nil {
		t.Fatal(err)
	}
	opts.Audit = true

	var cold countingProgress
	a := NewSuite(opts, WithCacheDir(dir), WithProgress(cold.fn))
	repA, err := a.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if cold.executed.Load() != 1 || cold.disk.Load() != 0 {
		t.Fatalf("cold faulted run: executed=%d disk=%d", cold.executed.Load(), cold.disk.Load())
	}

	var warm countingProgress
	b := NewSuite(opts, WithCacheDir(dir), WithProgress(warm.fn))
	repB, err := b.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if warm.executed.Load() != 0 || warm.disk.Load() != 1 {
		t.Errorf("warm faulted run: executed=%d disk=%d, want pure disk hit",
			warm.executed.Load(), warm.disk.Load())
	}
	if reportJSON(t, repA) != reportJSON(t, repB) {
		t.Error("disk round trip changed the faulted report")
	}
	// The fault-run fields must survive serialization.
	if repB.Audit == nil || !repB.Audit.Clean() || len(repB.Audit.OutputSums) == 0 {
		t.Errorf("deserialized audit lost data: %+v", repB.Audit)
	}
	if len(repB.FaultsInjected) == 0 || repB.Recovery.DeadDataNodes != 1 {
		t.Errorf("deserialized fault observability lost data: %+v", repB)
	}

	// Same cell, fault-free configuration: different content address.
	faultedKey, err := runcache.Key(keyMaterial(TS, SlotsRuns[0], a.Opts))
	if err != nil {
		t.Fatal(err)
	}
	cleanKey, err := runcache.Key(keyMaterial(TS, SlotsRuns[0], NewSuite(fastOpts).Opts))
	if err != nil {
		t.Fatal(err)
	}
	if faultedKey == cleanKey {
		t.Error("faulted run shares a cache slot with the fault-free configuration")
	}
}

// TestRestartRunDeterministicAcrossParallelism pins the determinism contract
// for the new fault kinds: cells under a restart+corruption plan (with
// integrity verification and audit on) resolve byte-identically whether the
// suite runs them sequentially or across a worker pool.
func TestRestartRunDeterministicAcrossParallelism(t *testing.T) {
	opts := fastOpts
	opts.Audit = true
	opts.Integrity = true
	var err error
	opts.Faults, err = faults.ParsePlan(
		"corrupt-block@250ms:node=slave-01;restart-datanode@300ms:node=slave-02,down=400ms")
	if err != nil {
		t.Fatal(err)
	}

	par := NewSuite(opts, WithParallelism(4))
	cells := []Cell{{TS, SlotsRuns[0]}, {AGG, SlotsRuns[0]}, {TS, MemoryRuns[1]}}
	if err := par.Prewarm(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	seq := NewSuite(opts) // parallelism 1
	for _, c := range cells {
		want, err := seq.Run(c.Workload, c.Factors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Run(c.Workload, c.Factors)
		if err != nil {
			t.Fatal(err)
		}
		if reportJSON(t, got) != reportJSON(t, want) {
			t.Errorf("%s: restart-run report differs between parallelism 1 and 4",
				c.Factors.cacheKey(c.Workload))
		}
		if got.Recovery.BlockReports == 0 {
			t.Errorf("%s: no block report recorded — the restart never exercised rejoin",
				c.Factors.cacheKey(c.Workload))
		}
	}
}

// TestFaultedRestartNeverAliasesCleanCache: a restart+corruption run and the
// fault-free configuration of the same cell must occupy different content
// addresses — a cold faulted run executes, its warm repeat is a pure disk
// hit, and a clean suite over the same cache directory still executes rather
// than being served the faulted report (or vice versa).
func TestFaultedRestartNeverAliasesCleanCache(t *testing.T) {
	dir := t.TempDir()
	faulted := tinyOpts
	faulted.Audit = true
	faulted.Integrity = true
	faulted.ScrubRate = -1
	var err error
	faulted.Faults, err = faults.ParsePlan("restart-datanode@100ms:node=slave-01,down=100ms")
	if err != nil {
		t.Fatal(err)
	}

	var cold countingProgress
	a := NewSuite(faulted, WithCacheDir(dir), WithProgress(cold.fn))
	repFaulted, err := a.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if cold.executed.Load() != 1 || cold.disk.Load() != 0 {
		t.Fatalf("cold faulted run: executed=%d disk=%d", cold.executed.Load(), cold.disk.Load())
	}

	var warm countingProgress
	b := NewSuite(faulted, WithCacheDir(dir), WithProgress(warm.fn))
	repWarm, err := b.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if warm.executed.Load() != 0 || warm.disk.Load() != 1 {
		t.Errorf("warm faulted run: executed=%d disk=%d, want pure disk hit",
			warm.executed.Load(), warm.disk.Load())
	}
	if reportJSON(t, repWarm) != reportJSON(t, repFaulted) {
		t.Error("disk round trip changed the faulted-restart report")
	}

	// A clean suite over the same directory must NOT see the faulted entry.
	var clean countingProgress
	c := NewSuite(tinyOpts, WithCacheDir(dir), WithProgress(clean.fn))
	repClean, err := c.Run(TS, SlotsRuns[0])
	if err != nil {
		t.Fatal(err)
	}
	if clean.disk.Load() != 0 || clean.executed.Load() != 1 {
		t.Errorf("clean run over faulted cache: executed=%d disk=%d, want a fresh execution",
			clean.executed.Load(), clean.disk.Load())
	}
	if repClean.Recovery.BlockReports != 0 || repClean.FaultsInjected != nil {
		t.Errorf("clean run carries faulted state — cache aliasing: %+v", repClean.Recovery)
	}

	// And the faulted cell must still be servable from disk afterwards.
	var warm2 countingProgress
	d := NewSuite(faulted, WithCacheDir(dir), WithProgress(warm2.fn))
	if _, err := d.Run(TS, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if warm2.disk.Load() != 1 {
		t.Error("clean run evicted or shadowed the faulted cache entry")
	}
}

// TestCacheKeySeparatesConfigurations: any change to the run configuration
// must land in a different slot.
func TestCacheKeySeparatesConfigurations(t *testing.T) {
	base := NewSuite(tinyOpts).Opts
	baseKey, err := runcache.Key(keyMaterial(TS, SlotsRuns[0], base))
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Options{}
	o := base
	o.Seed = 2
	variants["seed"] = o
	o = base
	o.Scale = base.Scale * 2
	variants["scale"] = o
	o = base
	o.InputFraction = 0.5
	variants["input-fraction"] = o
	o = base
	o.SharedDataDisks = true
	variants["shared-disks"] = o
	o = base
	if o.Faults, err = faults.ParsePlan("slow-disk@1ns:node=slave-00,disk=mr0,factor=4"); err != nil {
		t.Fatal(err)
	}
	variants["slow-disk"] = o
	o = base
	if o.Faults, err = faults.ParsePlan(killPlan); err != nil {
		t.Fatal(err)
	}
	variants["fault-plan"] = o
	o = base
	o.Faults.Seed = base.Faults.Seed + 1
	variants["fault-seed"] = o
	o = base
	o.Audit = true
	variants["audit"] = o
	o = base
	o.Integrity = true
	variants["integrity"] = o
	o = base
	o.ScrubRate = 4 << 20
	variants["scrub-rate"] = o
	for name, opts := range variants {
		k, err := runcache.Key(keyMaterial(TS, SlotsRuns[0], opts))
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Errorf("%s change did not change the cache key", name)
		}
	}
	// Different workload and factors also separate.
	if k, _ := runcache.Key(keyMaterial(AGG, SlotsRuns[0], base)); k == baseKey {
		t.Error("workload not in the key")
	}
	if k, _ := runcache.Key(keyMaterial(TS, SlotsRuns[1], base)); k == baseKey {
		t.Error("factors not in the key")
	}
}

// TestRunKeyCoversEveryOptionsField walks Options by reflection, recursing
// through nested structs, pointers and slices: flipping any data field must
// change the cache key, the fields hidden from the key (`json:"-"`) must be
// exactly the func-typed hooks, and every hook must make the run
// uncacheable. A field added to Options — or to a struct it embeds — is thus
// in the key the day it lands, with no list to extend.
func TestRunKeyCoversEveryOptionsField(t *testing.T) {
	opts := NewSuite(tinyOpts).Opts
	key := func() string {
		k, err := runcache.Key(keyMaterial(TS, SlotsRuns[0], opts))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// flipped runs mutate, checks the key moved, and undoes the mutation.
	flipped := func(path string, v reflect.Value, mutate func()) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		before := key()
		mutate()
		if key() == before {
			t.Errorf("changing %s did not change the cache key", path)
		}
		v.Set(old)
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				fpath := path + "." + f.Name
				isFunc := f.Type.Kind() == reflect.Func
				if hidden := f.Tag.Get("json") == "-"; hidden != isFunc {
					t.Errorf("%s: json:\"-\" = %v but func-typed = %v (hooks, and only hooks, stay out of the key)", fpath, hidden, isFunc)
				}
				if !isFunc {
					walk(fpath, v.Field(i))
					continue
				}
				if !cacheable(opts) {
					t.Fatalf("base options are not cacheable before %s is set", fpath)
				}
				hook := v.Field(i)
				hook.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value { return nil }))
				if cacheable(opts) {
					t.Errorf("%s is set but the run is still cacheable", fpath)
				}
				hook.Set(reflect.Zero(f.Type))
			}
		case reflect.Pointer:
			flipped(path, v, func() { v.Set(reflect.New(v.Type().Elem())) })
			old := v.Interface()
			v.Set(reflect.New(v.Type().Elem()))
			walk("(*"+path+")", v.Elem())
			v.Set(reflect.ValueOf(old))
		case reflect.Slice:
			flipped(path, v, func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
			old := v.Interface()
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			walk(path+"[0]", v.Index(0))
			v.Set(reflect.ValueOf(old))
		case reflect.Bool:
			flipped(path, v, func() { v.SetBool(!v.Bool()) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			flipped(path, v, func() { v.SetInt(v.Int() + 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			flipped(path, v, func() { v.SetUint(v.Uint() + 1) })
		case reflect.Float32, reflect.Float64:
			flipped(path, v, func() { v.SetFloat(v.Float() + 0.5) })
		case reflect.String:
			flipped(path, v, func() { v.SetString(v.String() + "x") })
		default:
			t.Fatalf("%s: kind %s is not handled — teach this test how to flip it", path, v.Kind())
		}
	}
	walk("Options", reflect.ValueOf(&opts).Elem())
}

// TestHookedRunsBypassDiskCache: runs with live hooks must not be persisted
// or served from disk — their effects are not in the serialized report.
func TestHookedRunsBypassDiskCache(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts
	inspected := 0
	opts.Inspect = func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) { inspected++ }
	var prog countingProgress
	s := NewSuite(opts, WithCacheDir(dir), WithProgress(prog.fn))
	if _, err := s.Run(TS, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if inspected != 1 {
		t.Fatalf("Inspect ran %d times", inspected)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("hooked run persisted %d cache entries, want none", len(entries))
	}
	// A second suite re-executes (and re-runs the hook) rather than serving
	// a report that silently skipped it.
	var prog2 countingProgress
	s2 := NewSuite(opts, WithCacheDir(dir), WithProgress(prog2.fn))
	if _, err := s2.Run(TS, SlotsRuns[0]); err != nil {
		t.Fatal(err)
	}
	if prog2.executed.Load() != 1 || prog2.disk.Load() != 0 {
		t.Errorf("hooked run served from cache: executed=%d disk=%d",
			prog2.executed.Load(), prog2.disk.Load())
	}
}

func TestSuiteRunContextCancelled(t *testing.T) {
	s := NewSuite(tinyOpts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, TS, SlotsRuns[0]); err == nil {
		t.Error("want cancellation error")
	}
	if s.CachedRuns() != 0 {
		t.Error("cancelled cell must stay unresolved")
	}
	// The cell is retryable after cancellation.
	if _, err := s.Run(TS, SlotsRuns[0]); err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
}

func TestMatrixCellsDedupAndCoverage(t *testing.T) {
	cells := MatrixCells()
	// 4 workloads × 5 distinct factor settings (two baselines are shared
	// between families).
	if len(cells) != 20 {
		t.Fatalf("matrix has %d cells, want 20", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		key := c.Factors.cacheKey(c.Workload)
		if seen[key] {
			t.Errorf("duplicate cell %s", key)
		}
		seen[key] = true
	}
	// Every cell any figure needs is in the matrix.
	for n := 1; n <= 12; n++ {
		fc, err := FigureCells(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range fc {
			if !seen[c.Factors.cacheKey(c.Workload)] {
				t.Errorf("figure %d cell %s missing from matrix", n, c.Factors.cacheKey(c.Workload))
			}
		}
	}
	for _, n := range []int{5, 6, 7} {
		tc, err := TableCells(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tc {
			if !seen[c.Factors.cacheKey(c.Workload)] {
				t.Errorf("table %d cell %s missing from matrix", n, c.Factors.cacheKey(c.Workload))
			}
		}
	}
}

func TestFigureTableCellsUnknown(t *testing.T) {
	if _, err := FigureCells(13); err == nil {
		t.Error("figure 13 should error")
	}
	if _, err := TableCells(4); err == nil {
		t.Error("table 4 should error")
	}
}

// TestBadCacheDirFailsLoudly: an unusable cache directory is a
// configuration error, not a silent fall-through to re-execution.
func TestBadCacheDirFailsLoudly(t *testing.T) {
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSuite(tinyOpts, WithCacheDir(filepath.Join(f, "cache")))
	if _, err := s.Run(TS, SlotsRuns[0]); err == nil {
		t.Error("want error for cache dir under a regular file")
	}
}
