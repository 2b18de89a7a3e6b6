package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Regression: chaos never validated its numeric flags, so `-runs 0` ran
// nothing and reported success. (The testbed flags -scale/-slaves/-parallel
// had the same defect; cliutil.Testbed checks those for every runner — see
// TestTestbedOptions there.)
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 3, 0); err != nil {
		t.Errorf("the flag defaults were rejected: %v", err)
	}
	cases := []struct {
		want           string
		runs, maxFault int
		soak           time.Duration
	}{
		{"-runs", 0, 3, 0},
		{"-runs", -2, 3, 0},
		{"-max-faults", 8, 0, 0},
		// Regression: a negative -soak ran -runs seeds and exited 0.
		{"-soak", 8, 3, -5 * time.Second},
	}
	for _, c := range cases {
		err := validateFlags(c.runs, c.maxFault, c.soak)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%d,%d,%v) = %v, want error mentioning %q", c.runs, c.maxFault, c.soak, err, c.want)
		}
	}
}

func TestReplayConflicts(t *testing.T) {
	cases := []struct {
		set  []string
		want []string
	}{
		{nil, nil},
		{[]string{"replay", "v"}, nil},
		{[]string{"replay", "runs"}, []string{"runs"}},
		{[]string{"soak", "replay", "workload"}, []string{"soak", "workload"}},
		{[]string{"runs", "soak", "workload"}, []string{"runs", "soak", "workload"}},
		{[]string{"scale", "slaves", "seed", "out"}, []string{"scale", "slaves", "seed", "out"}},
		{[]string{"v", "replay", "racks", "tier", "max-faults"}, []string{"racks", "tier", "max-faults"}},
	}
	for _, c := range cases {
		if got := replayConflicts(c.set); !reflect.DeepEqual(got, c.want) {
			t.Errorf("replayConflicts(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

// Regression: -replay silently ignored every flag but -soak, -runs and
// -workload, so `-replay f.json -racks 2 -scale 4 -tier ssd -max-faults 0`
// replayed the file at its own shape and exited 0. Any flag other than -v
// next to -replay is now a usage error: exit 2 and one chaos: line, before
// the file is read. The test re-runs its own binary as the command, with the
// arguments in CHAOS_ARGS.
func TestReplayRejectsEveryOtherFlag(t *testing.T) {
	if args := os.Getenv("CHAOS_ARGS"); args != "" {
		// A fresh flag set, so the test binary's own -test.* flags do not
		// count as set.
		flag.CommandLine = flag.NewFlagSet("chaos", flag.ExitOnError)
		os.Args = append([]string{"chaos"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	const replay = "-replay ../../internal/chaos/testdata/chaos/TS-corrupt-restart.json "
	for _, tc := range []struct{ args, named string }{
		{replay + "-racks 2 -scale 4 -tier ssd -max-faults 0", "with -max-faults, -racks, -scale, -tier\n"},
		{replay + "-v -seed 7", "with -seed\n"},
		{replay + "-parallel 2", "with -parallel\n"},
		{replay + "-out x", "with -out\n"},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestReplayRejectsEveryOtherFlag$")
		cmd.Env = append(os.Environ(), "CHAOS_ARGS="+args)
		var out, errs bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errs
		status := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			status = exit.ExitCode()
		}
		if msg := errs.String(); status != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "chaos: ") || !strings.HasSuffix(msg, tc.named) {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one chaos: line ending %q", args, status, out.Len(), msg, tc.named)
		}
	}
}
