// Command mrrun executes a single workload on the simulated testbed with
// explicit configuration knobs and prints the job counters plus a compact
// iostat view of both disk groups — the "run one benchmark, watch iostat"
// workflow of the paper.
//
// Usage:
//
//	mrrun -workload TS -slots 2_16 -mem 16 -compress
//	mrrun -workload AGG -scale 8192
//	mrrun -workload TS -hist -trace-out ts.csv   # histograms and a trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"iochar/internal/cliutil"
	"iochar/internal/core"
	"iochar/internal/faults"
	"iochar/internal/iostat"
	"iochar/internal/report"
	"iochar/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "TS", "TS | AGG | KM | PR | JOIN (extension)")
		slots     = flag.String("slots", "1_8", "task slots config: 1_8 | 2_16")
		mem       = flag.Int("mem", 32, "node memory in GB (paper used 16 or 32)")
		compress  = flag.Bool("compress", false, "compress intermediate data")
		streamOut = flag.String("trace-out", "", "write the run's block-level I/O trace to this file (CSV, or NDJSON if the name ends in .ndjson) and print the physical per-stage table")
		faultStr  = flag.String("faults", "", `fault plan, e.g. "kill-datanode@15s:node=slave-02;restart-datanode@10s:node=slave-01,down=5s;corrupt-block@8s:path=/bench/TS/in/part-000"`)
		masters   = flag.Bool("master-recovery", false, "journal NameNode/JobTracker state to dedicated master-node disks (restart-namenode/restart-jobtracker faults imply this)")
		testbed   cliutil.Testbed
	)
	testbed.Register(flag.CommandLine, 4096, 10)
	testbed.RegisterRun(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w, err := core.ParseWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(2)
	}
	testbedOpts, err := testbed.Options(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(2)
	}
	if *mem <= 0 {
		fmt.Fprintf(os.Stderr, "mrrun: -mem must be positive GB, got %d\n", *mem)
		os.Exit(2)
	}
	var sc core.SlotsConfig
	switch *slots {
	case "1_8":
		sc = core.Slots1x8
	case "2_16":
		sc = core.Slots2x16
	default:
		fmt.Fprintf(os.Stderr, "mrrun: unknown slots config %q (want 1_8 or 2_16)\n", *slots)
		os.Exit(2)
	}
	opts := core.NewOptions(testbedOpts...)
	if *masters {
		opts = opts.With(core.WithMasterRecovery())
	}
	if *faultStr != "" {
		plan, err := faults.ParsePlan(*faultStr)
		if err == nil {
			_, err = plan.Resolve(opts.Slaves, opts.Racks, opts.SharedDataDisks)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(2)
		}
		opts = opts.With(core.WithFaults(plan))
	}
	// Warned once every usage error is ruled out, so each of those is the
	// one line on stderr.
	testbed.WarnClamps(os.Stderr, "mrrun")

	// The trace file is created before the run, so a path that cannot be
	// written fails at once; the records are the run's disk log.
	var stream *trace.StreamCollector
	if *streamOut != "" {
		if stream, err = trace.Create(*streamOut); err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(1)
		}
	}

	// A one-cell suite, so -hist renders the run through the suite's
	// distribution table.
	s := core.NewSuite(opts)
	cell := core.Cell{Workload: w, Factors: core.Factors{
		Slots: sc, MemoryGB: *mem, Compress: *compress,
	}}
	rep, err := s.RunContext(ctx, cell.Workload, cell.Factors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(1)
	}
	if stream != nil {
		rep.Log.WriteTrace(stream, "")
		if err := stream.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(1)
		}
		fmt.Printf("streamed %d trace records to %s\n", len(rep.Log.Entries), *streamOut)
	}
	report.JobSummary(os.Stdout, rep)

	fmt.Println("\niostat (mean over busy intervals / peak):")
	writeIostat(os.Stdout, rep)
	if testbed.Hist {
		fmt.Println()
		td, err := s.LatencyTable(cell)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(1)
		}
		report.WriteTable(os.Stdout, td)
	}
	if stream != nil {
		fmt.Println()
		report.WriteTable(os.Stdout, rep.Log.Physical().Table())
	}
}

// writeIostat prints one row per disk group: HDFS, MapReduce, then every
// other group in name order (fault splits, the per-class split of a tiered
// run, the master's metadata disks). The name column is as wide as the
// widest name, and never narrower than the 10 a plain run's names fit in.
func writeIostat(w io.Writer, rep *core.RunReport) {
	names := []string{"HDFS", "MapReduce"}
	groups := []*iostat.Report{rep.HDFS, rep.MR}
	for _, n := range slices.Sorted(maps.Keys(rep.Groups)) {
		names = append(names, n)
		groups = append(groups, rep.Groups[n])
	}
	width := 10
	for _, n := range names {
		width = max(width, len(n))
	}
	fmt.Fprintf(w, "  %-*s %16s %16s %14s %12s %14s\n",
		width, "group", "rMB/s", "wMB/s", "%util", "await(ms)", "avgrq-sz")
	for i, r := range groups {
		fmt.Fprintf(w, "  %-*s %7.1f / %6.1f %7.1f / %6.1f %6.1f / %5.1f %5.2f / %4.1f %7.0f / %5.0f\n",
			width, names[i],
			r.RMBs.MeanNonzero(), r.RMBs.Max(),
			r.WMBs.MeanNonzero(), r.WMBs.Max(),
			r.Util.MeanNonzero(), r.Util.Max(),
			r.AwaitMs.MeanNonzero(), r.AwaitMs.Max(),
			r.AvgrqSz.MeanNonzero(), r.AvgrqSz.Max())
	}
}
