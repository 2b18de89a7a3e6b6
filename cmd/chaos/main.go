// Command chaos drives the randomized fault-injection harness: it draws
// deterministic fault schedules from consecutive seeds, runs workloads under
// them, and judges each run against a fault-free golden reference with the
// full oracle set (output checksums, HDFS replication audit, localfs leak
// accounting, dirty-page check, clean kernel drain). Failing schedules are
// shrunk to a minimal reproduction and written out as replayable JSON.
//
// Usage:
//
//	chaos -seed 1 -runs 8                     # 8 seeds, all four workloads
//	chaos -workload TS -runs 32 -max-faults 4 # hammer one workload harder
//	chaos -workload KM -soak 2m               # loop seeds until the deadline
//	chaos -replay testdata/ts-kill.json       # re-judge a saved schedule
//	chaos -runs 16 -out failures/             # save shrunk failures as JSON
//
// The exit status is 0 when every oracle passed, 1 when any seed failed,
// 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iochar/internal/chaos"
	"iochar/internal/cliutil"
	"iochar/internal/core"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "first chaos seed; run i uses seed+i")
		runs      = flag.Int("runs", 8, "seeds to run per workload")
		workload  = flag.String("workload", "", "TS | AGG | KM | PR (empty = all four)")
		maxFaults = flag.Int("max-faults", 3, "max fault events per generated schedule")
		outDir    = flag.String("out", "", "directory to write failing (shrunk) schedules as JSON")
		mapTasks  = flag.Int64("map-tasks", 8, "map-task target for the largest workload")
		masters   = flag.Bool("master-recovery", false, "force the journaled NameNode/JobTracker layers on for every run, so slave-fault schedules also exercise them (master-fault schedules imply this; recorded in generated schedules)")
		parallel  = flag.Int("parallel", 1, "concurrent chaos runs (verdicts are identical at any value)")
		soak      = flag.Duration("soak", 0, "loop seeds until this much wall-clock time has passed (overrides -runs)")
		replay    = flag.String("replay", "", "replay a schedule JSON file instead of generating schedules")
		verbose   = flag.Bool("v", false, "print every verdict, not just failures")
		testbed   cliutil.Testbed
	)
	testbed.Register(flag.CommandLine, 262144, 5)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		if c := replayConflicts(set); len(c) > 0 {
			fmt.Fprintf(os.Stderr, "chaos: -replay re-judges one saved schedule at its own shape and cannot be combined with -%s\n",
				strings.Join(c, ", -"))
			os.Exit(2)
		}
		os.Exit(replayFile(ctx, *replay))
	}

	workloads := core.WorkloadOrder
	if *workload != "" {
		w, err := core.ParseWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		workloads = []core.Workload{w}
	}

	if err := validateFlags(*runs, *maxFaults, *mapTasks, *soak); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	coreOpts, err := testbed.Options(*parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	coreOpts = append(coreOpts, core.WithMapTaskTarget(*mapTasks))
	if *masters {
		coreOpts = append(coreOpts, core.WithMasterRecovery())
	}
	h := chaos.New(chaos.Options{
		Core:        core.NewOptions(coreOpts...),
		MaxFaults:   *maxFaults,
		Parallelism: *parallel,
	})

	failed := 0
	for _, w := range workloads {
		var verdicts []*chaos.Verdict
		var err error
		if *soak > 0 {
			deadline := time.Now().Add(*soak)
			_, err = h.Soak(ctx, w, *seed, deadline, func(v *chaos.Verdict) {
				verdicts = append(verdicts, v)
			})
		} else {
			verdicts, err = h.RunSeeds(ctx, w, *seed, *runs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		survived := 0
		for _, v := range verdicts {
			if v.Survived {
				survived++
				if *verbose {
					note := ""
					if n := len(v.ExpectedLoss); n > 0 {
						note = fmt.Sprintf("  (%d expected repl-1 loss(es))", n)
					}
					fmt.Printf("%-4s seed=%-6d SURVIVED  wall=%-12v reexec=%d retries=%d blacklisted=%d  [%s]%s\n",
						v.Schedule.Workload, v.Schedule.ChaosSeed, v.Wall,
						v.Counters.ReExecutedMaps, v.Counters.FetchRetries,
						v.Counters.BlacklistedTrackers, v.Schedule.Plan, note)
				}
				continue
			}
			failed++
			fmt.Printf("%-4s seed=%-6d FAILED    [%s]\n", v.Schedule.Workload, v.Schedule.ChaosSeed, v.Schedule.Plan)
			for _, f := range v.Findings {
				fmt.Printf("      finding: %s\n", f)
			}
			for _, f := range v.ExpectedLoss {
				fmt.Printf("      expected (repl-1): %s\n", f)
			}
			if v.Shrunk != nil {
				fmt.Printf("      shrunk:  [%s]\n", v.Shrunk.Plan)
				if *outDir != "" {
					if path, err := writeSchedule(*outDir, *v.Shrunk); err != nil {
						fmt.Fprintln(os.Stderr, "chaos:", err)
					} else {
						fmt.Printf("      saved:   %s\n", path)
					}
				}
			}
		}
		fmt.Printf("%s: %d/%d seeds survived\n", w, survived, len(verdicts))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// validateFlags rejects chaos's own numeric flags where a value would silently
// run nothing, -runs seeds (for -soak) or core's default map-task target
// (for -map-tasks); cliutil.Testbed checks the rest.
func validateFlags(runs, maxFaults int, mapTasks int64, soak time.Duration) error {
	if soak < 0 {
		return fmt.Errorf("-soak must not be negative, got %v", soak)
	}
	if runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", runs)
	}
	if maxFaults <= 0 {
		return fmt.Errorf("-max-faults must be positive, got %d", maxFaults)
	}
	if mapTasks <= 0 {
		return fmt.Errorf("-map-tasks must be positive, got %d", mapTasks)
	}
	return nil
}

// replayConflicts returns, in order, the flags in set (the explicitly
// passed flag names) other than -replay and -v: a replay runs exactly one
// schedule whose workload, testbed and plan all come from the file, so any
// other flag would be silently ignored — reject it instead.
func replayConflicts(set []string) []string {
	var out []string
	for _, name := range set {
		if name != "replay" && name != "v" {
			out = append(out, name)
		}
	}
	return out
}

// replayFile re-judges one saved schedule; exit status as for generation.
func replayFile(ctx context.Context, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 2
	}
	s, err := chaos.ParseSchedule(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 2
	}
	v, err := chaos.Replay(ctx, s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	if !v.Survived {
		fmt.Printf("%s REPLAY FAILED [%s]\n", s.Workload, s.Plan)
		for _, f := range v.Findings {
			fmt.Printf("  finding: %s\n", f)
		}
		return 1
	}
	fmt.Printf("%s REPLAY SURVIVED [%s] wall=%v reexec=%d retries=%d\n",
		s.Workload, s.Plan, v.Wall, v.Counters.ReExecutedMaps, v.Counters.FetchRetries)
	return 0
}

// writeSchedule saves a shrunk schedule under dir with a collision-free,
// content-describing name.
func writeSchedule(dir string, s chaos.Schedule) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d.json", s.Workload, s.ChaosSeed)
	path := filepath.Join(dir, name)
	b, err := s.Marshal()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
