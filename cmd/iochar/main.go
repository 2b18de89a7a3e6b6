// Command iochar regenerates the figures and tables of "I/O
// Characterization of Big Data Workloads in Data Centers" on the simulated
// testbed.
//
// Usage:
//
//	iochar -figure 1          # one figure (1-12)
//	iochar -table 6           # one table (5-7)
//	iochar -figure 1 -table 5 # both, figure first
//	iochar -all               # every figure and table
//	iochar -figure 3 -csv     # CSV instead of terminal rendering
//	iochar -scale 8192        # smaller/faster testbed (default 4096)
//	iochar -all -parallel 4   # fan experiment cells out across 4 workers
//	iochar -all -cache-dir ~/.cache/iochar  # persist cells across runs
//	iochar -hist              # per-request latency/size distributions
//	iochar -trace-out t.csv   # write the baseline runs' block traces to a file
//
// Runs are cached within one invocation, so -all executes each experiment
// cell exactly once even though figures share runs. With -cache-dir the
// cells additionally persist on disk: a repeat invocation under the same
// configuration loads every cell from the cache and renders byte-identical
// output without simulating anything. Ctrl-C cancels a sweep mid-cell.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iochar/internal/cliutil"
	"iochar/internal/core"
	"iochar/internal/report"
	"iochar/internal/trace"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "regenerate paper figure N (1-12)")
		table    = flag.Int("table", 0, "regenerate paper table N (5-7)")
		all      = flag.Bool("all", false, "regenerate every figure and table")
		attr     = flag.Bool("attr", false, "print the per-stage I/O demand breakdown (extension)")
		traceOut = flag.String("trace-out", "", "write the baseline workloads' block traces to this file (CSV, or NDJSON if the name ends in .ndjson)")
		csv      = flag.Bool("csv", false, "emit CSV instead of terminal charts")
		parallel = flag.Int("parallel", 0, "experiment cells to simulate concurrently (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persist experiment cells under this directory")
		verbose  = flag.Bool("v", false, "per-cell progress to stderr")
		testbed  cliutil.Testbed
	)
	testbed.Register(flag.CommandLine, 4096, 10)
	testbed.RegisterRun(flag.CommandLine)
	cliutil.Once("iochar", flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	testbedOpts, err := testbed.Options(*parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iochar:", err)
		os.Exit(2)
	}
	// -figure and -table combine, figures first as under -all.
	var figures, tables []int
	switch {
	case *all:
		figures, tables = core.Figures(), core.Tables()
	case *figure != 0 || *table != 0:
		if *figure != 0 {
			figures = []int{*figure}
		}
		if *table != 0 {
			tables = []int{*table}
		}
	case *attr, testbed.Hist, *traceOut != "":
		// handled below
	default:
		flag.Usage()
		os.Exit(2)
	}
	cells, err := cellsFor(figures, tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iochar:", err)
		os.Exit(2)
	}
	// The trace file is created before anything runs, so a path that cannot
	// be written fails at once.
	var sink *trace.StreamCollector
	if *traceOut != "" {
		if sink, err = trace.Create(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
	}
	testbed.WarnClamps(os.Stderr, "iochar")

	opts := core.NewOptions(testbedOpts...)
	sopts := []core.SuiteOption{core.WithParallelism(*parallel)}
	if *cacheDir != "" {
		sopts = append(sopts, core.WithCacheDir(*cacheDir))
	}
	if *verbose {
		sopts = append(sopts, core.WithProgress(progressLine))
	}
	s := core.NewSuite(opts, sopts...)

	start := time.Now()
	// Resolve every needed cell up front across the worker pool; rendering
	// below then serves purely from memory. -all sweeps the full matrix.
	switch {
	case *all:
		err = s.RunAll(ctx)
	case len(cells) > 0:
		err = s.Prewarm(ctx, cells)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iochar:", err)
		os.Exit(1)
	}
	// -csv switches every renderer: figures, Tables 5–7 and the extension tables.
	writeFigure, writeTable := report.WriteFigure, report.WriteTable
	if *csv {
		writeFigure, writeTable = report.WriteFigureCSV, report.WriteTableCSV
	}
	for _, n := range figures {
		if *verbose {
			fmt.Fprintf(os.Stderr, "figure %d...\n", n)
		}
		fd, err := s.Figure(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
		writeFigure(os.Stdout, fd)
	}
	for _, n := range tables {
		if *verbose {
			fmt.Fprintf(os.Stderr, "table %d...\n", n)
		}
		td, err := s.Table(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
		writeTable(os.Stdout, td)
	}
	if *attr {
		td, err := s.AttributionTable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
		writeTable(os.Stdout, td)
	}
	if testbed.Hist {
		td, err := s.LatencyTable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
		writeTable(os.Stdout, td)
	}
	if sink != nil {
		if err := writeTraces(ctx, s, sink, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "iochar:", err)
			os.Exit(1)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "done in %v (%d experiment cells)\n",
			time.Since(start).Round(time.Second), s.CachedRuns())
	}
}

// writeTraces writes every paper workload's baseline run to one combined
// file whose device names are prefixed by workload ("TS:slave-03.mr1"). The
// suite serves each run, so a cell -attr or -hist has already resolved is
// not simulated again; a report loaded from the disk cache carries no log of
// its disk completions, and that cell alone is run afresh, its log held
// only until it is written (64 bytes a completion).
func writeTraces(ctx context.Context, s *core.Suite, sink *trace.StreamCollector, path string) error {
	n := 0
	for _, w := range core.WorkloadOrder {
		rep, err := s.RunContext(ctx, w, core.SlotsRuns[0])
		if err == nil && rep.Log == nil {
			rep, err = core.RunOneContext(ctx, w, core.SlotsRuns[0], s.Opts)
		}
		if err != nil {
			return err
		}
		rep.Log.WriteTrace(sink, w.String()+":")
		n += len(rep.Log.Entries)
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamed %d trace records to %s\n", n, path)
	return nil
}

// cellsFor lists the cells the requested figures and tables render from; an
// unknown figure or table is an error.
func cellsFor(figures, tables []int) ([]core.Cell, error) {
	var cells []core.Cell
	for _, n := range figures {
		fc, err := core.FigureCells(n)
		if err != nil {
			return nil, err
		}
		cells = append(cells, fc...)
	}
	for _, n := range tables {
		tc, err := core.TableCells(n)
		if err != nil {
			return nil, err
		}
		cells = append(cells, tc...)
	}
	return cells, nil
}

// progressLine renders one resolved cell to stderr, e.g.
//
//	cell 3/20 TS_1_8 mem=16G compress=true: executed
//	cell 4/20 KM_2_16 mem=16G compress=true: cache
func progressLine(ev core.ProgressEvent) {
	src := "executed"
	if ev.Source == core.SourceDisk {
		src = "cache"
	}
	total := ""
	if ev.Total > 0 {
		total = fmt.Sprintf("/%d", ev.Total)
	}
	status := src
	if ev.Err != nil {
		status = src + " FAILED: " + ev.Err.Error()
	}
	fmt.Fprintf(os.Stderr, "cell %d%s %s mem=%dG compress=%v: %s\n",
		ev.Done, total, ev.Factors.Label(ev.Workload), ev.Factors.MemoryGB,
		ev.Factors.Compress, status)
}
