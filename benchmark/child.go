package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// A child process measures one workload: one untimed cold iteration on a
// fresh heap, then timed iterations, each on a fresh testbed, until its
// share of the run's measuring time is used. It never runs beside another
// child.

// childConfig is the child's command line.
type childConfig struct {
	workload string
	seed     int64
	seconds  float64 // measuring time for this child's timed iterations
	traced   bool
	t0       int64 // parent's clock (unix ns) just before it started the child
	outDir   string
	par      int
}

// sample is one timed iteration's host cost.
type sample struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	GCPause  float64 `json:"gc_pause_ms"`
	RefS     float64 `json:"ref_s"` // the reference kernel, mean of its runs just before and just after
}

// childReport is the child's single line of standard output.
type childReport struct {
	SetupS      float64  `json:"setup_s"`
	SetupRefS   float64  `json:"setup_ref_s"` // the reference kernel around the cold iteration
	PeakRSSMB   float64  `json:"peak_rss_mb"`
	Samples     []sample `json:"samples"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	Fingerprint string   `json:"fingerprint"`

	// Traced children only.
	PerLayer        map[string]float64 `json:"per_layer,omitempty"`
	ProfileOtherPct float64            `json:"profile_other_pct,omitempty"`
	ProfileCopyPct  float64            `json:"profile_memmove_pct,omitempty"`
	TraceFile       string             `json:"trace_file,omitempty"`
}

// measurer runs iterations of one workload and keeps the books: samples,
// operation counts, and the fingerprint every iteration must repeat.
type measurer struct {
	cfg childConfig
	wl  workload
	rep childReport
	ref *refKernel // nil in a traced child: its profile must hold the workload alone
}

// run executes one iteration and returns its host cost; record adds it to
// the samples the parent pools.
func (m *measurer) run(it *iteration, record bool) sample {
	it.seed, it.outDir, it.par = m.cfg.seed, m.cfg.outDir, m.cfg.par
	var s sample
	it.timed = func(fn func()) {
		runtime.GC() // every timed region starts from a collected heap
		var ms0, ms1 runtime.MemStats
		var ru0, ru1 syscall.Rusage
		refBefore := m.ref.run()
		runtime.ReadMemStats(&ms0)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
		t0 := time.Now()
		fn()
		s.WallS = time.Since(t0).Seconds()
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		runtime.ReadMemStats(&ms1)
		s.RefS = (refBefore + m.ref.run()) / 2
		s.CPUS = cpuSeconds(&ru1) - cpuSeconds(&ru0)
		s.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
		s.GCCycles = float64(ms1.NumGC - ms0.NumGC)
		s.GCPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	out := m.wl.iterate(it)
	if record {
		m.rep.Samples = append(m.rep.Samples, s)
	}

	if m.rep.Fingerprint == "" {
		m.rep.Fingerprint = out.fingerprint
	} else if out.fingerprint != "" && out.fingerprint != m.rep.Fingerprint {
		out.failf("nondeterministic: outcome fingerprint %s, earlier iteration had %s", out.fingerprint, m.rep.Fingerprint)
	}
	failed := len(out.failures)
	if failed > out.attempted {
		failed = out.attempted
	}
	m.rep.Attempted += out.attempted
	m.rep.Failed += failed
	m.rep.Failures = append(m.rep.Failures, out.failures...)
	return s
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runChild is the child's main. The report goes to w as one JSON line.
func runChild(cfg childConfig, w io.Writer) error {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	m := &measurer{cfg: cfg, wl: wl}
	var tr *tracer
	root := 0
	if cfg.traced {
		tr = newTracer()
		root = tr.begin(0, "child")
	} else {
		m.ref = newRefKernel()
	}

	// Set-up: process start to the end of the cold iteration. A one-shot
	// mrrun or iochar user pays this on every run.
	id := tr.begin(root, "cold_iter")
	cold := m.run(&iteration{}, false)
	tr.end(id)
	m.rep.SetupS = time.Since(time.Unix(0, cfg.t0)).Seconds()
	m.rep.SetupRefS = cold.RefS

	if !cfg.traced {
		m.timedLoop(cfg.seconds)
	} else if err := m.tracedRun(tr, root, cold.WallS); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&m.rep)
}

// timedLoop runs timed iterations until the budget is used: another one
// starts only if at least half of it is expected to fit, so overshoot and
// undershoot average out. Every child contributes at least one.
//
// Peak RSS is read after the first timed iteration, not at exit: how many
// more iterations fit depends on the machine's speed that minute, and a
// high-water mark taken over a varying amount of work is not a steady number.
func (m *measurer) timedLoop(seconds float64) {
	start := time.Now()
	for {
		last := m.run(&iteration{}, true)
		if len(m.rep.Samples) == 1 {
			var ru syscall.Rusage
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
			m.rep.PeakRSSMB = float64(ru.Maxrss) / 1024     // Linux reports KiB
		}
		if time.Since(start).Seconds()+last.WallS/2 > seconds {
			return
		}
	}
}

// A traced child runs, after the cold iteration, as many untraced timed
// iterations (the reference for trace_overhead_pct) and then as many under
// the CPU profile with the hooks in: two, or more when iterations are short,
// so that each side covers about tracedSeconds. Two io_storm passes are 0.9 s,
// some ninety profile samples, and their overhead reading was mostly noise.
const (
	tracedMinIters = 2
	tracedMaxIters = 8
	tracedSeconds  = 2.0
)

func tracedIterations(coldWallS float64) int {
	n := tracedMinIters
	if coldWallS > 0 {
		n = int(math.Ceil(tracedSeconds / coldWallS))
	}
	return min(max(n, tracedMinIters), tracedMaxIters)
}

// tracedRun produces the per-layer numbers: untraced iterations as the
// overhead reference, as many under a CPU profile and the allocation profile
// with the layer counters harvested, then the direct timing of input
// preparation.
//
// Reference and profiled iterations alternate, each profiled one compared
// with the reference just before it, because a process slows as it ages — an
// io_storm pass takes 0.31 s in a fresh child and 0.48 s eighteen passes
// later, in steps, while the reference kernel stays flat — and a reference
// block run before a profiled block booked that drift as tracing overhead.
func (m *measurer) tracedRun(tr *tracer, root int, coldWallS float64) error {
	isSuite := m.wl.name == "suite_all"
	tracedIters := tracedIterations(coldWallS)
	baseline := tracedIters
	if isSuite {
		// Its two traced passes are different passes (see below), and a pass
		// is twenty cells: one is reference enough.
		tracedIters, baseline = 2, 1
	}

	inputs := map[string]prepareInput{}
	alloc := map[string]float64{}
	var profs [][]byte
	var accs []*layerAcc
	var baseWall, walls, overhead, gcCycles, gcPause []float64
	for i := 0; i < tracedIters; i++ {
		if i < baseline {
			baseWall = append(baseWall, m.run(&iteration{}, true).WallS)
		}
		runtime.GC()
		alloc0 := allocByLayer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		it := &iteration{traced: true, tr: tr, acc: newLayerAcc(), inputs: inputs}
		// suite_all's two traced passes differ: the first is the normal
		// parallel pass (cell spans, cache timings), the second runs at
		// parallelism 1 with the hooks in (layer counters, suite_seq_s).
		it.seq = isSuite && i == 1
		it.span = tr.begin(root, fmt.Sprintf("iter[%d]", i))
		s := m.run(it, false)
		tr.end(it.span)
		pprof.StopCPUProfile()
		runtime.GC()
		for l, v := range allocByLayer() {
			alloc[l] += v - alloc0[l]
		}
		profs = append(profs, prof.Bytes())
		accs = append(accs, it.acc)
		walls = append(walls, s.WallS)
		gcCycles = append(gcCycles, s.GCCycles)
		gcPause = append(gcPause, s.GCPause)
		if i < baseline {
			overhead = append(overhead, 100*(s.WallS/baseWall[i]-1))
		}
	}

	// Counters drawn from the simulation must repeat exactly.
	final := accs[len(accs)-1]
	if isSuite {
		for k, v := range accs[0].sum { // the passes gather disjoint counters
			final.add(k, v)
		}
	} else if name, ok := equalExact(accs[0].metrics(), final.metrics()); !ok {
		m.rep.Failed++
		m.rep.Failures = append(m.rep.Failures, fmt.Sprintf("counter %s differs between traced iterations of one child", name))
	}

	if err := timePrepare(tr, root, final, inputs, m.cfg.seed); err != nil {
		return err
	}
	pl := final.metrics()

	cpu, copyShare, err := cpuByLayer(profs...)
	if err != nil {
		return err
	}
	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, l := range layers {
		pl[l+".cpu_s"] = cpu[l] / float64(tracedIters)
		if _, declared := pl[l+".alloc_mb"]; declared {
			pl[l+".alloc_mb"] = alloc[l] / mib / float64(tracedIters)
		}
	}
	if cpuTotal > 0 {
		m.rep.ProfileOtherPct = 100 * cpu[layerOther] / cpuTotal
	}
	m.rep.ProfileCopyPct = 100 * copyShare

	// eventsWall is the host time the counted events took on one simulation
	// thread.
	eventsWall := median(baseWall)
	if isSuite {
		eventsWall = walls[1]
		pl["core.suite_seq_s"] = walls[1]
		pl["core.suite_parallel_speedup"] = walls[1] / walls[0]
	}
	pl["core.trace_overhead_pct"] = median(overhead)
	pl["core.gc_cycles"] = median(gcCycles)
	pl["core.gc_pause_ms"] = median(gcPause)
	pl["sim.events_per_host_s"] = pl["sim.events"] / eventsWall
	m.rep.PerLayer = pl

	tr.end(root)
	m.rep.TraceFile = filepath.Join(m.cfg.outDir, "trace_"+m.wl.name+".json")
	if err := os.MkdirAll(m.cfg.outDir, 0o755); err != nil {
		return err
	}
	return tr.write(m.rep.TraceFile, m.wl.name, m.cfg.seed)
}
