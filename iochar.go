// Package iochar reproduces "I/O Characterization of Big Data Workloads in
// Data Centers" (Pan, Yue, Xiong, Hao — BPOE-4, 2014) as a self-contained
// simulation study: a deterministic virtual-time Hadoop-1.x testbed (HDFS,
// MapReduce, page cache, mechanical disks, 1 GbE network), the paper's four
// BigDataBench workloads executing real data end to end, an iostat clone,
// and a harness that regenerates every figure and table of the paper's
// evaluation.
//
// The one-call entry points:
//
//	suite := iochar.NewSuite(iochar.Options{Scale: 4096},
//	    iochar.WithParallelism(4),          // fan cells out across 4 workers
//	    iochar.WithCacheDir(".iochar-cache")) // persist results across runs
//	iochar.RenderFigure(os.Stdout, suite, 1)    // Figure 1 of the paper
//	iochar.RenderTable(os.Stdout, suite, 6)     // Table 6 of the paper
//
// or run a single experiment cell:
//
//	rep, err := iochar.Run(iochar.TS, iochar.Factors{
//	    Slots: iochar.Slots1x8, MemoryGB: 32, Compress: true,
//	}, iochar.Options{})
//
// Long sweeps are cancellable: RunContext and Suite.RunContext thread a
// context.Context down into the discrete-event loop.
//
// The building blocks live under internal/: the simulation kernel (sim),
// the disk and page-cache models (disk, pagecache), the filesystems
// (localfs, hdfs), the MapReduce runtime (mapred), the workloads, and the
// characterization framework (core). This package is the stable facade.
package iochar

import (
	"context"
	"io"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/report"
)

// Options configures the simulated testbed; the zero value gives the
// defaults documented on core.Options (scale 1/1024, 10 slaves, 1 s-scaled
// iostat interval). It is a plain struct: fill it directly, or build it with
// NewOptions and the With* functions, which are the same setters.
type Options = core.Options

// Option configures the testbed one knob at a time; see NewOptions.
type Option = core.Option

// NewOptions builds an Options value from functional options:
//
//	opts := iochar.NewOptions(iochar.WithScale(4096), iochar.WithAudit())
//
// Zero-valued knobs keep their documented defaults, exactly as for a
// hand-filled struct. Extend an existing value with Options.With.
func NewOptions(opts ...Option) Options { return core.NewOptions(opts...) }

// The testbed knobs, mirrored from internal/core.
var (
	WithScale           = core.WithScale           // capacity divisor vs the paper's testbed
	WithSlaves          = core.WithSlaves          // number of slave nodes
	WithRacks           = core.WithRacks           // top-of-rack topology (1 = flat fabric)
	WithUplink          = core.WithUplink          // rack uplink bytes/sec (0 = NIC rate)
	WithSeed            = core.WithSeed            // simulation seed
	WithSampleInterval  = core.WithSampleInterval  // iostat sampling interval
	WithMapTaskTarget   = core.WithMapTaskTarget   // map-task bound for the largest workload
	WithInputFraction   = core.WithInputFraction   // shrink inputs further (0,1]
	WithHistograms      = core.WithHistograms      // per-request latency/size distributions
	WithAudit           = core.WithAudit           // post-run invariant audit
	WithIntegrity       = core.WithIntegrity       // end-to-end HDFS checksums
	WithScrubRate       = core.WithScrubRate       // background replica scrubber rate
	WithFaults          = core.WithFaults          // deterministic fault plan
	WithMasterRecovery  = core.WithMasterRecovery  // journaled NameNode/JobTracker state + restart recovery
	WithSharedDataDisks = core.WithSharedDataDisks // pooled instead of dedicated spindles
	WithTraceAttach     = core.WithTraceAttach     // per-disk observer hook
	WithTuneMapred      = core.WithTuneMapred      // MapReduce config hook
	WithInspect         = core.WithInspect         // post-run simulation-context hook

	WithIntermediateTier = core.WithIntermediateTier // device class for intermediate data
)

// Tier is a block-device class for storage-tier policy: the intermediate
// (spill/merge/shuffle) volumes can be provisioned on TierSSD while HDFS
// data disks stay mechanical. Parse user input with ParseTier.
type Tier = disk.Class

// The device classes.
const (
	TierHDD = disk.ClassHDD // mechanical: seek + rotation + transfer
	TierSSD = disk.ClassSSD // flash: per-op latency + bandwidth + channels
)

// ParseTier resolves a device-class name ("hdd" or "ssd").
func ParseTier(s string) (Tier, error) { return disk.ParseClass(s) }

// Factors is one cell of the paper's experiment matrix: task slots, memory
// size, and intermediate-data compression.
type Factors = core.Factors

// SlotsConfig names a per-node task-slot setting.
type SlotsConfig = core.SlotsConfig

// The paper's two slot settings.
var (
	Slots1x8  = core.Slots1x8
	Slots2x16 = core.Slots2x16
)

// Experiment families (shared baselines across figures, per the captions).
var (
	SlotsRuns    = core.SlotsRuns
	MemoryRuns   = core.MemoryRuns
	CompressRuns = core.CompressRuns
)

// RunReport is one executed cell: iostat reports for the HDFS and
// MapReduce-intermediate disk groups plus per-job counters.
type RunReport = core.RunReport

// AuditReport is the post-run invariant audit (HDFS replication, localfs
// leak accounting, dirty pages, canonical output checksums) attached to
// RunReport.Audit when Options.Audit is set — the chaos harness's oracle
// input, usable standalone for any run.
type AuditReport = core.AuditReport

// Workload is a typed benchmark identifier; use the TS/AGG/KM/PR constants
// (or Join for the extension) instead of magic strings. It serializes as
// the paper abbreviation and implements fmt.Stringer.
type Workload = core.Workload

// The paper's four workloads and the Join extension.
const (
	TS   = core.TS   // TeraSort
	AGG  = core.AGG  // Hive Aggregation
	KM   = core.KM   // K-means
	PR   = core.PR   // PageRank
	Join = core.Join // Hive Join (extension)
)

// ParseWorkload resolves a workload name ("TS", "terasort", ... in any
// case) to its typed identifier.
func ParseWorkload(s string) (Workload, error) { return core.ParseWorkload(s) }

// Workloads returns the paper's four workloads in figure order.
func Workloads() []Workload { return core.PaperWorkloads() }

// Suite is the experiment executor: it resolves cells against an in-memory
// result map, an optional persistent on-disk cache, and fresh execution on
// a bounded worker pool, deduplicating concurrent requests so figures that
// share baseline runs never execute a cell twice. Suites are safe for
// concurrent use.
type Suite = core.Suite

// SuiteOption configures executor behaviour on NewSuite.
type SuiteOption = core.SuiteOption

// ProgressEvent reports one experiment cell resolving (executed or loaded
// from the persistent cache); see WithProgress.
type ProgressEvent = core.ProgressEvent

// WithParallelism bounds the suite's worker pool: at most n experiment
// cells simulate concurrently (n < 1 selects GOMAXPROCS). Results are
// byte-identical at every parallelism level.
func WithParallelism(n int) SuiteOption { return core.WithParallelism(n) }

// WithCacheDir persists resolved cells as versioned JSON under dir, so
// repeat invocations skip completed cells entirely. Corrupt, truncated or
// schema-stale entries are treated as misses and rewritten.
func WithCacheDir(dir string) SuiteOption { return core.WithCacheDir(dir) }

// WithProgress installs a callback fired as cells resolve (possibly from
// concurrent worker goroutines).
func WithProgress(fn func(ProgressEvent)) SuiteOption { return core.WithProgress(fn) }

// NewSuite creates an experiment suite. With no SuiteOptions it executes
// sequentially and keeps results only in memory.
func NewSuite(opts Options, sopts ...SuiteOption) *Suite { return core.NewSuite(opts, sopts...) }

// Run executes one workload under one factor setting on a fresh simulated
// cluster.
func Run(w Workload, f Factors, opts Options) (*RunReport, error) {
	return core.RunOne(w, f, opts)
}

// RunContext is Run with cancellation: ctx is threaded into the
// discrete-event loop, so cancelling it aborts the simulation promptly.
func RunContext(ctx context.Context, w Workload, f Factors, opts Options) (*RunReport, error) {
	return core.RunOneContext(ctx, w, f, opts)
}

// Cell is one (workload, factors) coordinate of the experiment matrix.
type Cell = core.Cell

// RunSource says where a resolved cell came from (see ProgressEvent).
type RunSource = core.RunSource

// The cell resolution sources.
const (
	SourceExecuted = core.SourceExecuted // simulated fresh
	SourceDisk     = core.SourceDisk     // loaded from the persistent cache
)

// MatrixCells returns every distinct cell of the paper's experiment matrix
// (baseline cells shared between factor families listed once).
func MatrixCells() []Cell { return core.MatrixCells() }

// FigureCells returns the cells paper Figure n renders from.
func FigureCells(n int) ([]Cell, error) { return core.FigureCells(n) }

// TableCells returns the cells paper Table n renders from.
func TableCells(n int) ([]Cell, error) { return core.TableCells(n) }

// Figures returns the reproducible figure numbers (1-12).
func Figures() []int { return core.Figures() }

// Tables returns the reproducible table numbers (5-7; Tables 1-4 are
// configuration and notation, encoded as package defaults).
func Tables() []int { return core.Tables() }

// RenderFigure regenerates paper Figure n and renders it to w.
func RenderFigure(w io.Writer, s *Suite, n int) error {
	fd, err := s.Figure(n)
	if err != nil {
		return err
	}
	report.WriteFigure(w, fd)
	return nil
}

// RenderTable regenerates paper Table n and renders it to w.
func RenderTable(w io.Writer, s *Suite, n int) error {
	td, err := s.Table(n)
	if err != nil {
		return err
	}
	report.WriteTable(w, td)
	return nil
}

// RenderFigureCSV emits Figure n's data as CSV for external plotting.
func RenderFigureCSV(w io.Writer, s *Suite, n int) error {
	fd, err := s.Figure(n)
	if err != nil {
		return err
	}
	report.WriteFigureCSV(w, fd)
	return nil
}

// RenderTableCSV emits Table n as CSV.
func RenderTableCSV(w io.Writer, s *Suite, n int) error {
	td, err := s.Table(n)
	if err != nil {
		return err
	}
	report.WriteTableCSV(w, td)
	return nil
}

// FaultPlan is a deterministic, seeded schedule of failures (disk, node,
// network) injected into a run via Options.Faults.
type FaultPlan = faults.Plan

// ParseFaultPlan parses the fault-plan string syntax, e.g.
// "kill-datanode@15s:node=slave-02;drop-shuffle@5s:until=20s,prob=0.3".
func ParseFaultPlan(s string) (FaultPlan, error) { return faults.ParsePlan(s) }

// RandomFaultPlan samples n fault events over [0, window) against the named
// nodes, deterministically for a seed.
func RandomFaultPlan(seed int64, nodes []string, window time.Duration, n int) FaultPlan {
	return faults.RandomPlan(seed, nodes, window, n)
}

// Summarize renders one run's job counters and byte totals to w, including
// the fault/recovery block for runs that injected failures.
func Summarize(w io.Writer, rep *RunReport) { report.JobSummary(w, rep) }

// RenderAttribution renders the per-stage I/O demand breakdown of every
// workload (the paper's future work, implemented as an extension).
func RenderAttribution(w io.Writer, s *Suite) error {
	td, err := s.AttributionTable()
	if err != nil {
		return err
	}
	report.WriteTable(w, td)
	return nil
}

// RenderLatencyTable renders per-request latency/size distributions
// (p50/p95/p99/max of await, svctm and request size) for the given cells,
// or for every workload's baseline cell when none is given. The suite must
// be built with Options.Histograms set.
func RenderLatencyTable(w io.Writer, s *Suite, cells ...Cell) error {
	td, err := s.LatencyTable(cells...)
	if err != nil {
		return err
	}
	report.WriteTable(w, td)
	return nil
}

// PhysicalAttribution accumulates device-level per-stage I/O totals from
// stage-tagged request completions; attach it to data disks via
// Options.TraceAttach and render with its Table method.
type PhysicalAttribution = core.PhysicalAttribution

// NewPhysicalAttribution returns an empty physical per-stage accumulator.
func NewPhysicalAttribution() *PhysicalAttribution { return core.NewPhysicalAttribution() }

// RenderPhysicalAttribution renders the accumulated physical per-stage
// totals to w.
func RenderPhysicalAttribution(w io.Writer, pa *PhysicalAttribution) {
	report.WriteTable(w, pa.Table())
}
