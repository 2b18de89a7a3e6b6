package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"iochar/internal/bench"
	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/datagen"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/report"
	"iochar/internal/sim"
	"iochar/internal/trace"
)

// workload is one benchmark workload: a name, the reason it exists, and one
// closed-loop iteration. Sizes are fixed here so results compare across
// commits; they were tuned on a 2-core sandbox so that a warm iteration
// takes 0.5–2.5 s and the driver's 136 runs fit its time cap. The TeraSort
// cells use a map-task target of 64: with fewer, larger tasks the bytes
// allocated swing ±5 % with the seed (partition imbalance decides where
// each file's append growth stops), with 64 they stay within ±1 %.
type workload struct {
	name     string
	why      string
	parallel bool // runs several simulations at once: its children get a thread per suite worker
	iterate  func(it *iteration) outcome
}

var workloads = []workload{
	{
		name: "ts_compress",
		why:  "TeraSort with intermediate compression: DEFLATE dominates host CPU, so a codec change shows here and nowhere else",
		iterate: cell{
			w: core.TS, compress: true, scale: 65536, slaves: 4, mapTasks: 64,
		}.iterate,
	},
	{
		name: "ts_raw",
		why:  "TeraSort with compression off: the codec is bypassed and 2-3x the bytes cross localfs, pagecache, disk and netsim",
		iterate: cell{
			w: core.TS, compress: false, scale: 16384, slaves: 4, mapTasks: 64,
		}.iterate,
	},
	{
		name: "km_cpu",
		why:  "K-means: four small jobs bound by float parsing and framing in the UDFs, little intermediate data",
		iterate: cell{
			w: core.KM, compress: true, scale: 65536, slaves: 4, mapTasks: 24,
		}.iterate,
	},
	{
		name:    "io_storm",
		why:     "small appends, random reads, transfers and deletes with almost no payload: the only workload the event kernel dominates",
		iterate: stormIterate,
	},
	{
		name: "ts_faulted",
		why:  "TeraSort on two racks under a fixed fault plan: the only run of both master journals, recovery, the rack fabric and the observers",
		iterate: cell{
			w: core.TS, compress: true, scale: 65536, slaves: 6, mapTasks: 64, faulted: true,
		}.iterate,
	},
	{
		name:     "suite_all",
		why:      "the 20-cell -all matrix, cold then warm from the run cache: what iochar users wait for, through the parallel executor",
		parallel: true,
		iterate:  suiteIterate,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iteration is what one call of a workload's iterate sees: the inputs (the
// seed, where scratch files go), whether this is a traced iteration, and
// the timed callback that brackets the part host_wall_s covers.
type iteration struct {
	seed   int64
	outDir string // scratch space inside the checkout
	par    int    // suite parallelism (1 when the machine has one core)

	// timed runs fn under the child's measurement; what a workload does
	// outside it (oracles, the warm cache rerun) is not in host_wall_s.
	timed func(fn func())

	// Tracing state; nil/zero on untraced iterations.
	traced bool
	seq    bool // suite_all: run this traced pass at parallelism 1 with the hooks in
	tr     *tracer
	span   int // the iteration's span
	acc    *layerAcc
	inputs map[string]prepareInput // what each workload's Prepare loaded, for the direct timing
}

// outcome is one iteration's verdict. Each iteration (each cell of a suite
// pass) is one operation, and each failure note fails one of them.
type outcome struct {
	attempted   int
	failures    []string
	fingerprint string // must repeat across the iterations of one child
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// --- experiment-cell workloads -------------------------------------------

// faultPlan exercises, in one run, a fail-slow disk, a NameNode bounce, a
// DataNode bounce, a rack partition and a JobTracker bounce. The times land
// inside the ~0.7 s virtual run at scale 65536: all nine events fire.
const faultPlan = "slow-disk@50ms:node=slave-03,disk=mr0,factor=4;" +
	"restart-namenode@80ms:down=40ms;" +
	"restart-datanode@150ms:node=slave-02,down=50ms;" +
	"partition@250ms:rack=2,down=50ms;" +
	"restart-jobtracker@400ms:down=25ms"

const faultEvents = 9 // five faults plus four rejoin/heal notes

// cell is one core.RunOne experiment cell at 1_8 slots and 16 GB.
type cell struct {
	w        core.Workload
	compress bool
	scale    int64
	slaves   int
	mapTasks int64
	faulted  bool // two racks, master recovery, integrity, observers, faultPlan
}

func (c cell) iterate(it *iteration) outcome {
	out := outcome{attempted: 1}
	var sorted sortCheck
	var codec codecStats
	var blockTrace *trace.StreamCollector

	opts := []core.Option{
		core.WithScale(c.scale), core.WithSlaves(c.slaves), core.WithMapTaskTarget(c.mapTasks),
		core.WithSeed(it.seed), core.WithAudit(),
		core.WithInspect(func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
			if c.w == core.TS {
				sorted = checkTeraSorted(p, fs, cl)
			}
			if it.traced {
				it.acc.cluster(cl)
				it.noteInputs(fs, c.scale, c.slaves)
			}
		}),
	}
	if c.faulted {
		plan, err := faults.ParsePlan(faultPlan)
		if err != nil {
			out.failf("fault plan: %v", err)
			return out
		}
		blockTrace = trace.NewStreamCollector(io.Discard)
		opts = append(opts,
			core.WithRacks(2), core.WithUplink(40<<20), core.WithMasterRecovery(),
			core.WithIntegrity(), core.WithHistograms(), core.WithFaults(plan),
			core.WithTraceAttach(func(dev string, d *disk.Disk) { blockTrace.Attach(d, dev) }))
	}
	if it.traced {
		opts = append(opts, it.timeCodec(&codec))
	}

	factors := core.Factors{Slots: core.Slots1x8, MemoryGB: 16, Compress: c.compress}
	var rep *core.RunReport
	var err error
	it.timed(func() { rep, err = core.RunOne(c.w, factors, core.NewOptions(opts...)) })
	if err != nil {
		out.failf("run: %v", err)
		return out
	}

	for _, v := range rep.Audit.Violations() {
		out.failf("audit: %s", v)
	}
	if c.w == core.TS {
		sorted.judge(&out, rep)
	}
	if c.faulted {
		if err := blockTrace.Flush(); err != nil {
			out.failf("block trace: %v", err)
		}
		if len(rep.FaultsInjected) != faultEvents {
			out.failf("faults: %d events fired, plan has %d", len(rep.FaultsInjected), faultEvents)
		}
	}
	out.fingerprint = bench.Fingerprint(rep)

	if it.traced {
		it.acc.report(rep)
		it.acc.codec(&codec)
		if blockTrace != nil {
			it.acc.add("iostat.trace_records", float64(blockTrace.Len()))
		}
		it.virtualSpans(c.w.String(), rep)
	}
	return out
}

// timeCodec wraps the job's codec in the timing wrapper. The identity codec
// stays bare: a run without compression must report exactly zero codec calls.
func (it *iteration) timeCodec(st *codecStats) core.Option {
	return core.WithTuneMapred(func(cfg *mapred.Config) {
		if cfg.Codec.Name() != "identity" {
			cfg.Codec = timingCodec{Codec: cfg.Codec, st: st, tr: it.tr, parent: it.span}
		}
	})
}

// sortCheck is the TeraSort output oracle, filled in simulation context
// while the cluster still exists.
type sortCheck struct {
	records  int64
	inputs   int64 // input bytes / record size
	unsorted string
	err      error
}

// checkTeraSorted reads every output part back in order: concatenated, the
// keys must be non-decreasing, and the record count must match the input.
func checkTeraSorted(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) sortCheck {
	var sc sortCheck
	for _, path := range fs.List("/bench/TS/in/") {
		sc.inputs += fs.Size(path) / datagen.RecordSize
	}
	var prev []byte
	for _, path := range fs.List("/bench/TS/out/") {
		r, err := fs.Open(path, cl.Master.Name)
		if err != nil {
			sc.err = err
			return sc
		}
		data, err := r.ReadAt(p, 0, r.Size())
		if err != nil {
			sc.err = err
			return sc
		}
		for len(data) > 0 {
			k, _, rest := mapred.NextKV(data)
			if len(rest) >= len(data) {
				sc.err = fmt.Errorf("%s: malformed record stream", path)
				return sc
			}
			if sc.unsorted == "" && bytes.Compare(prev, k) > 0 {
				sc.unsorted = fmt.Sprintf("%s: key %q after %q", path, k, prev)
			}
			prev = append(prev[:0], k...)
			sc.records++
			data = rest
		}
	}
	return sc
}

func (sc sortCheck) judge(out *outcome, rep *core.RunReport) {
	switch {
	case sc.err != nil:
		out.failf("terasort read-back: %v", sc.err)
	case sc.unsorted != "":
		out.failf("terasort output not globally sorted: %s", sc.unsorted)
	case sc.records != sc.inputs || sc.records != rep.Jobs[0].MapInputRecords:
		out.failf("terasort output has %d records, input %d (maps read %d)", sc.records, sc.inputs, rep.Jobs[0].MapInputRecords)
	}
}

// virtualSpans writes a cell's virtual-clock track: each job with its map
// phase and reduce tail, and every fault that fired.
func (it *iteration) virtualSpans(name string, rep *core.RunReport) {
	root := it.tr.add(trackVirtual, it.span, name, 0, virtUS(rep.Wall))
	for i, j := range rep.Jobs {
		job := it.tr.add(trackVirtual, root, fmt.Sprintf("job[%d]", i), virtUS(j.Start), virtUS(j.End))
		it.tr.add(trackVirtual, job, "map_phase", virtUS(j.Start), virtUS(j.MapsDone))
		it.tr.add(trackVirtual, job, "reduce_tail", virtUS(j.MapsDone), virtUS(j.End))
	}
	for _, f := range rep.FaultsInjected {
		// Injector notes read "t=150ms restart-namenode@150ms:down=80ms".
		at, what, _ := strings.Cut(strings.TrimPrefix(f, "t="), " ")
		if d, err := time.ParseDuration(at); err == nil {
			it.tr.add(trackVirtual, root, "fault: "+what, virtUS(d), virtUS(d))
		}
	}
}

// --- suite_all ------------------------------------------------------------

// The -all matrix runs far smaller cells than the single-cell workloads:
// twenty of them must fit one iteration.
const (
	suiteScale  = 262144
	suiteSlaves = 4
)

func suiteIterate(it *iteration) outcome {
	var out outcome
	cells := core.MatrixCells()
	out.attempted = len(cells)

	cacheDir, err := os.MkdirTemp(it.outDir, "runcache-")
	if err != nil {
		out.failf("cache dir: %v", err)
		return out
	}
	defer os.RemoveAll(cacheDir)

	opts := []core.Option{
		core.WithScale(suiteScale), core.WithSlaves(suiteSlaves), core.WithSeed(it.seed), core.WithAudit(),
	}
	par := it.par
	var codec codecStats
	if it.seq {
		// The sequential traced pass carries the hooks, which make cells
		// uncacheable; it is also the only pass whose Inspect calls cannot
		// race each other.
		par = 1
		opts = append(opts,
			core.WithInspect(func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
				it.acc.cluster(cl)
				it.noteInputs(fs, suiteScale, suiteSlaves)
			}),
			it.timeCodec(&codec))
	}
	sopts := []core.SuiteOption{core.WithParallelism(par), core.WithCacheDir(cacheDir)}
	var passStart time.Time
	if it.traced {
		sopts = append(sopts, core.WithProgress(it.cellSpans(par, &passStart)))
	}

	// Cold pass: fresh suite, empty cache, every figure and table rendered.
	var cold *core.Suite
	var coldOut []byte
	var renderTime time.Duration
	it.timed(func() {
		passStart = time.Now()
		cold = core.NewSuite(core.NewOptions(opts...), sopts...)
		if err = cold.RunAll(context.Background()); err != nil {
			return
		}
		id := it.tr.begin(it.span, "render")
		t0 := time.Now()
		coldOut, err = renderAll(cold)
		renderTime = time.Since(t0)
		it.tr.end(id)
	})
	if err != nil {
		out.failf("cold pass: %v", err)
		return out
	}

	// Warm rerun: a new suite over the cache the cold pass just wrote.
	warmStart := time.Now()
	var warmOut []byte
	if !it.seq {
		warm := core.NewSuite(core.NewOptions(opts...), core.WithParallelism(par), core.WithCacheDir(cacheDir))
		if err = warm.RunAll(context.Background()); err == nil {
			warmOut, err = renderAll(warm)
		}
		if err != nil {
			out.failf("warm rerun: %v", err)
		} else if !bytes.Equal(coldOut, warmOut) {
			out.failf("warm rerun from the run cache renders different output than the cold pass")
		}
	}
	warmTime := time.Since(warmStart)

	// Per-cell audit, then the paper's four observations over the matrix.
	for _, c := range cells {
		label := fmt.Sprintf("%s m%d c%v", c.Factors.Label(c.Workload), c.Factors.MemoryGB, c.Factors.Compress)
		rep, err := cold.Run(c.Workload, c.Factors) // resolved: served from memory
		if err != nil {
			out.failf("cell %s: %v", label, err)
			continue
		}
		if v := rep.Audit.Violations(); len(v) > 0 {
			out.failf("cell %s: audit: %s", label, strings.Join(v, "; "))
		}
		if it.seq {
			it.acc.report(rep)
		}
	}
	checkObservations(&out, cold)

	sum := sha256.Sum256(coldOut)
	out.fingerprint = hex.EncodeToString(sum[:])[:16]

	switch {
	case it.seq:
		it.acc.codec(&codec)
		it.acc.hash = hash32(out.fingerprint)
		it.acc.add("core.suite_cells", float64(cold.CachedRuns()))
	case it.traced:
		it.acc.add("core.render_s", renderTime.Seconds())
		it.acc.add("core.cache_warm_rerun_s", warmTime.Seconds())
		it.acc.add("core.cache_store_mb", float64(dirBytes(cacheDir))/mib)
	}
	return out
}

// renderAll renders what `iochar -all` prints: every figure, then every
// table.
func renderAll(s *core.Suite) ([]byte, error) {
	var buf bytes.Buffer
	for _, n := range core.Figures() {
		fd, err := s.Figure(n)
		if err != nil {
			return nil, err
		}
		report.WriteFigure(&buf, fd)
	}
	for _, n := range core.Tables() {
		td, err := s.Table(n)
		if err != nil {
			return nil, err
		}
		report.WriteTable(&buf, td)
	}
	return buf.Bytes(), nil
}

// cellSpans turns the suite's progress events into one host span per cell.
// An event only says when a cell finished; since all cells queue on the
// worker pool at once, the worker that took it is the one that had been free
// longest, so its start is that worker's previous finish.
func (it *iteration) cellSpans(par int, passStart *time.Time) func(core.ProgressEvent) {
	var mu sync.Mutex            // events arrive from worker goroutines
	free := make([]float64, par) // when each worker last finished; 0 = at pass start
	return func(ev core.ProgressEvent) {
		now := it.tr.hostUS(time.Now())
		mu.Lock()
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		start := free[w]
		if start == 0 {
			start = it.tr.hostUS(*passStart)
		}
		free[w] = now
		mu.Unlock()
		name := fmt.Sprintf("suite.cell[%s m%d c%v %s]", ev.Factors.Label(ev.Workload), ev.Factors.MemoryGB, ev.Factors.Compress, ev.Source)
		it.tr.add(trackHost, it.span, name, start, now)
	}
}

// checkObservations holds the matrix to the paper's four concluding
// observations, in the forms that are robust at this scale for any seed.
func checkObservations(out *outcome, s *core.Suite) {
	run := func(w core.Workload, f core.Factors) *core.RunReport {
		rep, err := s.Run(w, f) // resolved: served from memory
		if err != nil {
			out.failf("observations: %v", err)
			return nil
		}
		return rep
	}
	drift := func(x, y float64) float64 {
		if x == 0 && y == 0 {
			return 0
		}
		return math.Abs(x-y) / math.Max(x, y)
	}

	// 1: task slots leave the HDFS I/O metrics essentially unchanged.
	for _, w := range []core.Workload{core.AGG, core.TS} {
		a, b := run(w, core.SlotsRuns[0]), run(w, core.SlotsRuns[1])
		if a == nil || b == nil {
			return
		}
		if d := drift(a.HDFS.RMBs.Mean(), b.HDFS.RMBs.Mean()); d > 0.30 {
			out.failf("observation 1: %s HDFS read MB/s drifts %.0f%% across slot settings", w, d*100)
		}
		if d := drift(a.HDFS.Util.Mean(), b.HDFS.Util.Mean()); d > 0.35 {
			out.failf("observation 1: %s HDFS %%util drifts %.0f%% across slot settings", w, d*100)
		}
		if d := drift(a.HDFS.AvgrqSz.MeanNonzero(), b.HDFS.AvgrqSz.MeanNonzero()); d > 0.40 {
			out.failf("observation 1: %s HDFS avgrq-sz drifts %.0f%% across slot settings", w, d*100)
		}
	}

	// 2: more memory means fewer intermediate-disk requests and less pressure.
	lo, hi := run(core.TS, core.MemoryRuns[0]), run(core.TS, core.MemoryRuns[1])
	if lo == nil || hi == nil {
		return
	}
	if l, h := lo.MR.TotalReads+lo.MR.TotalWrites, hi.MR.TotalReads+hi.MR.TotalWrites; h >= l {
		out.failf("observation 2: MapReduce disk requests did not fall with memory: %d -> %d", l, h)
	}
	if hi.MR.Util.Mean() >= lo.MR.Util.Mean() {
		out.failf("observation 2: MapReduce disk %%util did not fall with memory: %.1f -> %.1f", lo.MR.Util.Mean(), hi.MR.Util.Mean())
	}

	// 3: compression shrinks intermediate I/O and leaves HDFS volume alone.
	off, on := run(core.TS, core.CompressRuns[0]), run(core.TS, core.CompressRuns[1])
	if off == nil || on == nil {
		return
	}
	if on.MR.TotalWrittenBytes >= off.MR.TotalWrittenBytes {
		out.failf("observation 3: compression did not shrink intermediate writes: %d -> %d", off.MR.TotalWrittenBytes, on.MR.TotalWrittenBytes)
	}
	if d := drift(float64(on.HDFS.TotalReadBytes), float64(off.HDFS.TotalReadBytes)); d > 0.01 {
		out.failf("observation 3: compression changed HDFS read volume by %.1f%%", d*100)
	}

	// 4: HDFS requests are large and sequential, intermediate ones small.
	for _, w := range []core.Workload{core.TS, core.KM, core.PR} {
		rep := run(w, core.SlotsRuns[0])
		if rep == nil {
			return
		}
		h, m := rep.HDFS.AvgrqSz.MeanNonzero(), rep.MR.AvgrqSz.MeanNonzero()
		if m != 0 && h <= m {
			out.failf("observation 4: %s HDFS avgrq-sz %.0f not above MapReduce %.0f", w, h, m)
		}
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a best-effort size: unreadable entries count as empty
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// --- direct timing of input preparation ------------------------------------

// prepareInput records what one workload's Prepare loaded into HDFS, read
// back through Inspect, so the traced child can repeat that load under a
// host clock outside any simulation.
type prepareInput struct {
	scale     int64
	slaves    int
	blockSize int64
	parts     []int64 // byte size of each input part
}

func (it *iteration) noteInputs(fs *hdfs.FS, scale int64, slaves int) {
	found := map[string]prepareInput{}
	for _, path := range fs.List("/bench/") {
		key, rest, _ := strings.Cut(strings.TrimPrefix(path, "/bench/"), "/")
		if _, seen := it.inputs[key]; seen || !strings.HasPrefix(rest, "in/") {
			continue // an earlier cell of the same workload loaded the same input
		}
		in := found[key]
		in.parts = append(in.parts, fs.Size(path))
		found[key] = in
	}
	for key, in := range found {
		in.scale, in.slaves, in.blockSize = scale, slaves, fs.Config().BlockSize
		it.inputs[key] = in
	}
}

// generators mirror each workload's Prepare: the same seeded generator with
// the workload's default parameters.
var generators = map[string]func(seed int64) func(part int, size int64) []byte{
	"TS":  func(seed int64) func(int, int64) []byte { return datagen.TeraGen{Seed: seed}.Part },
	"AGG": func(seed int64) func(int, int64) []byte { return datagen.OrderGen{Seed: seed}.Part },
	"KM":  func(seed int64) func(int, int64) []byte { return datagen.PointGen{Seed: seed}.Part },
	"PR":  func(seed int64) func(int, int64) []byte { return datagen.GraphGen{Seed: seed}.Part },
}

// timePrepare repeats the input load of every workload the traced
// iterations ran: generate each part, then hdfs.Load it onto a fresh
// cluster. Neither call blocks in virtual time, so host spans are exact.
func timePrepare(tr *tracer, parent int, acc *layerAcc, inputs map[string]prepareInput, seed int64) error {
	keys := make([]string, 0, len(inputs))
	for k := range inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		in := inputs[key]
		gen := generators[key](seed)
		span := tr.begin(parent, "prepare["+key+"]")
		t0 := time.Now()
		env := sim.New(seed)
		cl, err := cluster.New(env, cluster.DefaultHardware(in.scale).WithMemoryGB(16), in.slaves)
		if err != nil {
			return err
		}
		cfg := hdfs.DefaultConfig(in.scale)
		cfg.BlockSize = in.blockSize
		fs := hdfs.New(env, cfg, cl.Net, cl.Slaves)
		for i, size := range in.parts {
			id := tr.begin(span, fmt.Sprintf("datagen.part[%d]", i))
			t1 := time.Now()
			data := gen(i, size)
			t2 := time.Now()
			tr.end(id)
			id = tr.begin(span, fmt.Sprintf("hdfs.load[%d]", i))
			fs.Load(fmt.Sprintf("/bench/%s/in/part-%05d", key, i), cl.Slaves[i%len(cl.Slaves)].Name, data)
			tr.end(id)
			acc.add("datagen.mb", float64(len(data))/mib)
			acc.add("datagen.host_s", t2.Sub(t1).Seconds())
			acc.add("hdfs.load_host_s", time.Since(t2).Seconds())
		}
		tr.end(span)
		acc.add("core.prepare_host_s", time.Since(t0).Seconds())
	}
	return nil
}
