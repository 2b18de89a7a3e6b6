// Command iosim drives the standalone disk model with a synthetic access
// pattern and prints iostat columns per interval — the tool used to
// validate the block-layer model against known patterns (pure sequential
// streams should merge into large requests and saturate transfer bandwidth;
// pure random small requests should be seek-bound with avgrq-sz near the
// issue size).
//
// Usage:
//
//	iosim -pattern seq -op read -reqkb 128 -streams 4 -seconds 10
//	iosim -pattern rand -op write -reqkb 4 -streams 32 -seconds 10
//
// A slow-disk fault plan degrades the device mid-run (fail-slow hardware;
// watch await/%util jump at the event time):
//
//	iosim -pattern seq -op read -reqkb 128 -streams 4 -seconds 10 -faults "slow-disk@5s:factor=8"
//
// It can also replay a trace captured with `mrrun -trace-out` through an
// alternative configuration ("what would this exact request stream have
// done under FIFO / without merging"):
//
//	iosim -replay ts.trace -dev slave-00.mr0 -sched fifo
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"iochar/internal/cliutil"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/iostat"
	"iochar/internal/sim"
	"iochar/internal/trace"
)

func main() {
	var (
		pattern = flag.String("pattern", "seq", "seq | rand")
		op      = flag.String("op", "read", "read | write")
		reqKB   = flag.Int("reqkb", 64, "request size in KiB")
		streams = flag.Int("streams", 1, "concurrent streams")
		seconds = flag.Int("seconds", 10, "virtual seconds to run")
		sched   = flag.String("sched", "look", "look | fifo")
		nomerge = flag.Bool("nomerge", false, "disable request merging")
		seed    = flag.Int64("seed", 1, "seed")
		replay  = flag.String("replay", "", "replay a trace CSV instead of generating a pattern")
		dev     = flag.String("dev", "", "device name within the trace (with -replay)")
		faultSt = flag.String("faults", "", `slow-disk fault plan for the device, e.g. "slow-disk@5s:factor=8"`)
	)
	cliutil.Once("iosim", flag.CommandLine)
	flag.Parse()

	// A replay issues the trace's own requests at their own times, so only
	// the device flags apply to it; any other would be silently ignored.
	if *replay != "" {
		var set []string
		flag.Visit(func(f *flag.Flag) {
			if !slices.Contains([]string{"replay", "dev", "sched", "nomerge"}, f.Name) {
				set = append(set, f.Name)
			}
		})
		if len(set) > 0 {
			fmt.Fprintf(os.Stderr, "iosim: -replay replays the trace's own requests and cannot be combined with -%s\n", strings.Join(set, ", -"))
			os.Exit(2)
		}
	} else if *dev != "" {
		fmt.Fprintln(os.Stderr, "iosim: -dev names a device within a trace and needs -replay")
		os.Exit(2)
	}

	plan, err := faults.ParsePlan(*faultSt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosim:", err)
		os.Exit(2)
	}
	for _, ev := range plan.Events {
		if ev.Kind != faults.SlowDisk {
			fmt.Fprintf(os.Stderr, "iosim: only slow-disk faults apply to the standalone disk model, got %s\n", ev.Kind)
			os.Exit(2)
		}
		if ev.Node != "" || ev.Disk != "" {
			fmt.Fprintf(os.Stderr, "iosim: %s names a node or disk, but the standalone disk model has one device (drop node= and disk=)\n", ev)
			os.Exit(2)
		}
	}

	p := disk.SeagateST1000NM0011()
	p.NoMerge = *nomerge
	if *sched == "fifo" {
		p.Scheduler = disk.SchedFIFO
	} else if *sched != "look" {
		fmt.Fprintln(os.Stderr, "iosim: unknown scheduler", *sched)
		os.Exit(2)
	}

	if *replay != "" {
		runReplay(*replay, *dev, p)
		return
	}
	dop, ok := map[string]disk.Op{"read": disk.Read, "write": disk.Write}[*op]
	if !ok || *pattern != "seq" && *pattern != "rand" {
		fmt.Fprintf(os.Stderr, "iosim: -op must be read or write and -pattern seq or rand, got %q and %q\n", *op, *pattern)
		os.Exit(2)
	}
	if *streams < 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "iosim: -streams and -seconds must be at least 1, got %d and %d\n", *streams, *seconds)
		os.Exit(2)
	}
	if *reqKB < 1 {
		fmt.Fprintln(os.Stderr, "iosim: request too small")
		os.Exit(2)
	}
	// Each stream starts at its own 1/streams share of the disk, so a request
	// must fit inside one share (checked on reqKB first: reqKB*1024 may
	// overflow).
	sectors := int64(*reqKB) * 1024 / disk.SectorSize
	if share := p.Sectors / int64(*streams); int64(*reqKB) >= share || sectors >= share {
		fmt.Fprintf(os.Stderr, "iosim: -reqkb %d does not fit: each of %d stream(s) gets %d sectors of %s\n", *reqKB, *streams, share, p.Name)
		os.Exit(2)
	}

	env := sim.New(*seed)
	defer env.Close() // streams are cut off at the horizon mid-request
	d := disk.New(env, p)
	for _, ev := range plan.Events {
		env.After(ev.At, func() {
			d.SetSlowFactor(ev.Factor)
			fmt.Fprintf(os.Stderr, "iosim: t=%v %s\n", env.Now(), ev)
		})
	}
	mon := iostat.NewMonitor(time.Second)
	mon.AddGroup("disk", d)
	mon.Start(env)

	horizon := time.Duration(*seconds) * time.Second
	for s := 0; s < *streams; s++ {
		s := s
		env.Go(fmt.Sprintf("stream-%d", s), func(pr *sim.Proc) {
			pos := int64(s) * (p.Sectors / int64(*streams))
			for pr.Now() < horizon {
				var sector int64
				if *pattern == "rand" {
					sector = env.Rand().Int63n(p.Sectors - sectors)
				} else {
					sector = pos
					pos += sectors
					if pos+sectors >= p.Sectors {
						pos = int64(s) * (p.Sectors / int64(*streams))
					}
				}
				d.Do(pr, dop, sector, int(sectors))
			}
		})
	}
	env.Go("stopper", func(pr *sim.Proc) {
		pr.Sleep(horizon)
		mon.Stop(pr.Now())
	})
	env.Run(horizon + time.Second)

	rep := mon.Report("disk")
	fmt.Printf("%8s %10s %10s %8s %10s %10s %10s\n",
		"t(s)", "rMB/s", "wMB/s", "%util", "await(ms)", "svctm(ms)", "avgrq-sz")
	for i := range rep.Util.Points {
		fmt.Printf("%8.0f %10.1f %10.1f %8.1f %10.2f %10.2f %10.1f\n",
			rep.Util.Points[i].T.Seconds(),
			rep.RMBs.Points[i].V, rep.WMBs.Points[i].V, rep.Util.Points[i].V,
			rep.AwaitMs.Points[i].V, rep.SvctmMs.Points[i].V, rep.AvgrqSz.Points[i].V)
	}
	st := d.Stats()
	fmt.Printf("\ntotals: %d reads (%d merged), %d writes (%d merged), %.1f MB read, %.1f MB written\n",
		st.ReadsCompleted, st.ReadsMerged, st.WritesCompleted, st.WritesMerged,
		float64(st.SectorsRead)*disk.SectorSize/(1<<20),
		float64(st.SectorsWritten)*disk.SectorSize/(1<<20))
}

// runReplay replays one device's requests from a trace file through the
// configured disk parameters and prints the timing summary.
func runReplay(path, dev string, p disk.Params) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosim:", err)
		os.Exit(1)
	}
	defer f.Close()
	recs, err := trace.ReadCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosim:", err)
		os.Exit(1)
	}
	if dev == "" {
		devs := trace.Devices(recs)
		if len(devs) == 0 {
			fmt.Fprintln(os.Stderr, "iosim: empty trace")
			os.Exit(1)
		}
		dev = devs[0]
		fmt.Fprintf(os.Stderr, "iosim: no -dev given; using %s (of %v)\n", dev, devs)
	}
	res, err := trace.Replay(recs, dev, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iosim:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed %d requests on %s: elapsed %v, device busy %v, mean await %v\n",
		res.Requests, dev, res.Elapsed, res.TotalBusy, res.MeanAwait)
	st := res.DiskStats
	fmt.Printf("reads %d (%d merged), writes %d (%d merged), %.1f MB in, %.1f MB out\n",
		st.ReadsCompleted, st.ReadsMerged, st.WritesCompleted, st.WritesMerged,
		float64(st.SectorsRead)*disk.SectorSize/(1<<20),
		float64(st.SectorsWritten)*disk.SectorSize/(1<<20))
}
