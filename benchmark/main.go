// Command benchmark is the repository's benchmark: six workloads that load
// different layers of the simulator, five host-side end-to-end metrics per
// workload, and a traced run that attributes host CPU, allocations and
// simulated work to each layer. See README.md in this directory.
//
// The driver runs it as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload, untraced then traced, and writes out/result.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// childrenPerRun is how many fresh processes one untraced run starts.
	// Each pays set-up once, so setup_s is the median and peak_rss_mb the
	// maximum of this many values, and the timed iterations pool across
	// process-level noise (heap layout, page placement) instead of sampling
	// it once.
	childrenPerRun = 3
	defaultSeconds = 15               // run_seconds in BENCHMARK.json
	childTimeout   = 50 * time.Second // three children must fit the driver's 180 s per run
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload the way the driver does and print its result line")
		only         = fs.String("only", "", "full run (untraced and traced) restricted to one workload")
		seed         = fs.Int64("seed", 1, "seed for the generated inputs")
		seconds      = fs.Float64("seconds", defaultSeconds, "measuring time per run")
		traceFlag    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		outDir       = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, traces and scratch files")
		compare      = fs.Bool("compare", false, "compare two result files (A.json B.json) under the bounds in BENCHMARK.json")
		calibrate    = fs.Int("calibrate", 0, "run this many untraced sets and print each metric's spread")
		benchJSON    = fs.String("bench-json", "BENCHMARK.json", "the benchmark declaration -compare and -calibrate read bounds from")

		child = fs.Bool("child", false, "internal: measure in this process")
		t0    = fs.Int64("t0", 0, "internal: parent clock at child start")
		par   = fs.Int("par", 1, "internal: suite parallelism")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if *child {
		if *traceFlag == 1 {
			// Set once, before anything allocates in bulk, as the runtime asks.
			runtime.MemProfileRate = 64 << 10
		}
		cfg := childConfig{workload: *workloadName, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, t0: *t0, outDir: *outDir, par: *par}
		if err := runChild(cfg, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		breach, err := compareFiles(stdout, *benchJSON, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if breach {
			return 1
		}
		return 0
	}

	p, err := newParent(*seed, *seconds, *outDir, stderr)
	if err != nil {
		return fail(err)
	}
	switch {
	case *calibrate > 0:
		err = p.calibrate(stdout, *calibrate, *benchJSON)
	case *workloadName != "":
		err = p.driverRun(stdout, *workloadName, *traceFlag == 1)
	default:
		err = p.fullRun(stdout, *only)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// parent starts children, one at a time, and folds their reports.
type parent struct {
	exe     string
	seed    int64
	seconds float64
	outDir  string
	stderr  io.Writer
	env     envBlock
}

func newParent(seed int64, seconds float64, outDir string, stderr io.Writer) (*parent, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	p := &parent{exe: exe, seed: seed, seconds: seconds, outDir: outDir, stderr: stderr}
	p.env = envBlock{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: 1,
		GOGC: os.Getenv("GOGC"), GitRev: gitRev(), Seed: seed, RunSeconds: seconds,
		Children: childrenPerRun, SuiteParallelism: 2,
	}
	if p.env.GOGC == "" {
		p.env.GOGC = "100 (default)"
	}
	if runtime.NumCPU() < 2 {
		// Two suite workers on one core would time-slice and measure the
		// scheduler; run the matrix sequentially and say so.
		p.env.SuiteParallelism = 1
		p.env.Notes = append(p.env.Notes, "nproc < 2: suite_all runs at parallelism 1; its numbers do not compare with a 2-worker result")
	}
	return p, nil
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// spawn runs one child to completion and returns its report.
func (p *parent) spawn(workload string, seconds float64, traced bool) (*childReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, p.exe, "-child",
		"-workload", workload,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", p.outDir,
		"-par", strconv.Itoa(p.env.SuiteParallelism),
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	// A simulation runs one goroutine at a time, so its child gets one
	// thread: with two, every hand-off between simulated processes may cross
	// to the other core, which ran ts_compress 10-15 % slower and doubled the
	// run-to-run spread of every single-simulation workload on this shared
	// 2-core host. Only suite_all, which runs simulations side by side, gets
	// a thread per worker.
	procs := p.env.GOMAXPROCS
	if wl, _ := workloadByName(workload); wl.parallel {
		procs = p.env.SuiteParallelism
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = p.stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("workload %s: child exceeded the %v timeout and was killed", workload, childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: child failed: %w", workload, err)
	}
	rep := &childReport{}
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("workload %s: child report: %w", workload, err)
	}
	return rep, nil
}

// measureUntraced is one run's end-to-end measurement: childrenPerRun fresh
// processes, each with an equal share of the measuring time.
//
// Every host time is scaled by refNominalS over what the reference kernel
// took around that very iteration, so a machine that a co-tenant has slowed
// for a minute slows the iteration and its yardstick alike (refkernel.go).
func (p *parent) measureUntraced(workload string) (*workloadResult, error) {
	res := &workloadResult{Name: workload}
	var setup, rss, wall, cpu, alloc, ref []float64
	fingerprint := ""
	for i := 0; i < childrenPerRun; i++ {
		rep, err := p.spawn(workload, p.seconds/childrenPerRun, false)
		if err != nil {
			return nil, err
		}
		setup = append(setup, rep.SetupS*refNominalS/rep.SetupRefS)
		rss = append(rss, rep.PeakRSSMB)
		for _, s := range rep.Samples {
			wall = append(wall, s.WallS*refNominalS/s.RefS)
			cpu = append(cpu, s.CPUS*refNominalS/s.RefS)
			alloc = append(alloc, s.AllocMB)
			ref = append(ref, s.RefS)
		}
		res.OpsAttempted += rep.Attempted
		res.OpsFailed += rep.Failed
		res.Failures = append(res.Failures, rep.Failures...)
		if fingerprint == "" {
			fingerprint = rep.Fingerprint
		} else if rep.Fingerprint != fingerprint {
			res.OpsFailed++
			res.Failures = append(res.Failures, fmt.Sprintf("nondeterministic across processes: fingerprint %s, earlier child had %s", rep.Fingerprint, fingerprint))
		}
	}
	res.EndToEnd = map[string]stat{
		"setup_s":     newStat("s", "median", setup),
		"host_wall_s": newStat("s", "median", wall),
		"host_cpu_s":  newStat("s", "median", cpu),
		"peak_rss_mb": newStat("MB", "max", rss),
		"alloc_mb":    newStat("MB", "median", alloc),
	}
	res.RefKernelMS = 1000 * median(ref)
	return res, nil
}

// measureTraced is the separate traced child that yields the per-layer
// metrics; no end-to-end number is taken from it.
func (p *parent) measureTraced(workload string) (*workloadResult, error) {
	rep, err := p.spawn(workload, 0, true)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{
		Name: workload, OpsAttempted: rep.Attempted, OpsFailed: rep.Failed, Failures: rep.Failures,
		PerLayer: map[string]value{}, ProfileOtherPct: rep.ProfileOtherPct, ProfileCopyPct: rep.ProfileCopyPct,
		TraceFile: rep.TraceFile,
	}
	for _, d := range perLayerDefs {
		res.PerLayer[d.Name] = value{Value: rep.PerLayer[d.Name], Unit: d.Unit}
	}
	return res, nil
}

// driverRun is the driver's protocol: one workload, one trace setting, the
// result object as the last line of standard output.
func (p *parent) driverRun(w io.Writer, workload string, traced bool) error {
	if err := checkWorkload(workload); err != nil {
		return err
	}
	var res *workloadResult
	var err error
	if traced {
		res, err = p.measureTraced(workload)
	} else {
		res, err = p.measureUntraced(workload)
	}
	if err != nil {
		return err
	}
	printWorkload(w, res)
	metrics := map[string]value{}
	for name, s := range res.EndToEnd {
		metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	for name, v := range res.PerLayer {
		metrics[name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsAttempted, res.OpsFailed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// fullRun measures every workload (or one), untraced then traced, prints
// every metric and writes result.json.
func (p *parent) fullRun(w io.Writer, only string) error {
	names := workloadNames()
	if only != "" {
		if err := checkWorkload(only); err != nil {
			return err
		}
		names = []string{only}
	}
	res := &result{Schema: resultSchema, Env: p.env}
	for _, name := range names {
		wr, err := p.measureUntraced(name)
		if err != nil {
			return err
		}
		tr, err := p.measureTraced(name)
		if err != nil {
			return err
		}
		wr.OpsAttempted += tr.OpsAttempted
		wr.OpsFailed += tr.OpsFailed
		wr.Failures = append(wr.Failures, tr.Failures...)
		wr.PerLayer, wr.ProfileOtherPct, wr.ProfileCopyPct, wr.TraceFile = tr.PerLayer, tr.ProfileOtherPct, tr.ProfileCopyPct, tr.TraceFile
		printWorkload(w, wr)
		res.Workloads = append(res.Workloads, *wr)
	}
	path := filepath.Join(p.outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	for _, wr := range res.Workloads {
		if wr.OpsFailed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", wr.Name, wr.OpsFailed, wr.OpsAttempted)
		}
	}
	return nil
}

func checkWorkload(name string) error {
	if _, ok := workloadByName(name); !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "== %s: %d operations attempted, %d failed\n", res.Name, res.OpsAttempted, res.OpsFailed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range endToEndDefs {
		if s, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "   %-30s %14.4f %-8s %s of %d, quartiles %.4f..%.4f..%.4f\n", d.Name, s.Value, s.Unit, s.Estimator, s.N, s.Q1, s.Median, s.Q3)
		}
	}
	if res.RefKernelMS > 0 {
		fmt.Fprintf(w, "   host times are scaled to a reference kernel of %.0f ms; it took %.2f ms (median) during this run\n", 1000*refNominalS, res.RefKernelMS)
	}
	if len(res.PerLayer) == 0 {
		return
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.PerLayer[name]
		fmt.Fprintf(w, "   %-30s %14.4f %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "   profile: %.1f%% of CPU samples unattributed, %.1f%% in memmove/memclr; trace %s\n", res.ProfileOtherPct, res.ProfileCopyPct, res.TraceFile)
}
