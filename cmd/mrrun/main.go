// Command mrrun executes a single workload on the simulated testbed with
// explicit configuration knobs and prints the job counters plus a compact
// iostat view of both disk groups — the "run one benchmark, watch iostat"
// workflow of the paper.
//
// Usage:
//
//	mrrun -workload TS -slots 2_16 -mem 16 -compress
//	mrrun -workload AGG -scale 8192
//	mrrun -workload TS -hist -trace-out ts.csv   # histograms AND a trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"iochar"
	"iochar/internal/cliutil"
	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "TS", "TS | AGG | KM | PR | JOIN (extension)")
		slots     = flag.String("slots", "1_8", "task slots config: 1_8 | 2_16")
		mem       = flag.Int("mem", 32, "node memory in GB (paper used 16 or 32)")
		compress  = flag.Bool("compress", false, "compress intermediate data")
		streamOut = flag.String("trace-out", "", "stream a block-level I/O trace to this file as requests complete (CSV, or NDJSON if the name ends in .ndjson); O(1) memory")
		faultStr  = flag.String("faults", "", `fault plan, e.g. "kill-datanode@15s:node=slave-02;restart-datanode@10s:node=slave-01,down=5s;corrupt-block@8s:path=/bench/TS/in/part-000"`)
		masters   = flag.Bool("master-recovery", false, "journal NameNode/JobTracker state to dedicated master-node disks (restart-namenode/restart-jobtracker faults imply this)")
		testbed   cliutil.Testbed
	)
	testbed.Register(flag.CommandLine, 4096, 10)
	testbed.RegisterRun(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w, err := iochar.ParseWorkload(*workload)
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
	testbed.WarnClamps(os.Stderr, "mrrun")
	var sc iochar.SlotsConfig
	switch *slots {
	case "1_8":
		sc = iochar.Slots1x8
	case "2_16":
		sc = iochar.Slots2x16
	default:
		fmt.Fprintf(os.Stderr, "mrrun: unknown slots config %q (want 1_8 or 2_16)\n", *slots)
		os.Exit(2)
	}
	opts := iochar.NewOptions(testbedOpts...)
	if *masters {
		opts = opts.With(iochar.WithMasterRecovery())
	}
	if *faultStr != "" {
		plan, err := iochar.ParseFaultPlan(*faultStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(2)
		}
		opts = opts.With(iochar.WithFaults(plan))
	}

	// All observers ride the same per-disk bus, so the streaming sink, the
	// per-stage accumulator and -hist histograms can watch one run.
	var stream *trace.StreamCollector
	var streamFile *os.File
	var phys *iochar.PhysicalAttribution
	if *streamOut != "" {
		f, err := os.Create(*streamOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(1)
		}
		streamFile = f
		format := trace.FormatCSV
		if strings.HasSuffix(*streamOut, ".ndjson") {
			format = trace.FormatNDJSON
		}
		stream = trace.NewStreamCollectorFormat(f, format)
		phys = iochar.NewPhysicalAttribution()
		opts = opts.With(iochar.WithTraceAttach(func(dev string, d *disk.Disk) {
			stream.Attach(d, dev)
			phys.Attach(d)
		}))
	}

	rep, err := iochar.RunContext(ctx, w, iochar.Factors{
		Slots: sc, MemoryGB: *mem, Compress: *compress,
	}, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(1)
	}
	if stream != nil {
		if err := stream.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mrrun:", err)
			os.Exit(1)
		}
		streamFile.Close()
		fmt.Printf("streamed %d trace records to %s\n", stream.Len(), *streamOut)
	}
	iochar.Summarize(os.Stdout, rep)

	fmt.Println("\niostat (mean over busy intervals / peak):")
	fmt.Printf("  %-10s %16s %16s %14s %12s %14s\n",
		"group", "rMB/s", "wMB/s", "%util", "await(ms)", "avgrq-sz")
	printGroup := func(name string, r *iostat.Report) {
		fmt.Printf("  %-10s %7.1f / %6.1f %7.1f / %6.1f %6.1f / %5.1f %5.2f / %4.1f %7.0f / %5.0f\n",
			name,
			r.RMBs.MeanNonzero(), r.RMBs.Max(),
			r.WMBs.MeanNonzero(), r.WMBs.Max(),
			r.Util.MeanNonzero(), r.Util.Max(),
			r.AwaitMs.MeanNonzero(), r.AwaitMs.Max(),
			r.AvgrqSz.MeanNonzero(), r.AvgrqSz.Max())
	}
	printGroup("HDFS", rep.HDFS)
	printGroup("MapReduce", rep.MR)
	if rep.Masters != nil {
		// Master metadata stream: the NameNode edit journal / fsimage and
		// the JobTracker job-state journal on the master's own disks.
		printGroup("masters", rep.Masters)
	}
	if len(rep.Classes) > 0 {
		// Tiered run: the per-device-class split (every spindle vs every
		// flash device) behind the hdd.*/ssd.* report series.
		classes := make([]string, 0, len(rep.Classes))
		for n := range rep.Classes {
			classes = append(classes, n)
		}
		sort.Strings(classes)
		for _, n := range classes {
			printGroup(n, rep.Classes[n])
		}
	}
	names := make([]string, 0, len(rep.FaultGroups))
	for n := range rep.FaultGroups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		printGroup(n, rep.FaultGroups[n])
	}
	if testbed.Hist {
		fmt.Println("\nper-request distributions (p50/p95/p99/max):")
		iochar.LatencyDists(os.Stdout, "HDFS", rep.HDFS.Hists)
		iochar.LatencyDists(os.Stdout, "MapReduce", rep.MR.Hists)
	}
	if phys != nil {
		fmt.Println()
		iochar.RenderPhysicalAttribution(os.Stdout, phys)
	}
}
