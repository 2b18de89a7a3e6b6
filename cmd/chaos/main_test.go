package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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
	if err := validateFlags(8, 3, 8, 0); err != nil {
		t.Errorf("the flag defaults were rejected: %v", err)
	}
	cases := []struct {
		want           string
		runs, maxFault int
		mapTasks       int64
		soak           time.Duration
	}{
		{"-runs", 0, 3, 8, 0},
		{"-runs", -2, 3, 8, 0},
		{"-max-faults", 8, 0, 8, 0},
		// Regression: a negative -soak ran -runs seeds and exited 0.
		{"-soak", 8, 3, 8, -5 * time.Second},
		// Regression: core read a non-positive target as its default, 512.
		{"-map-tasks", 8, 3, 0, 0},
		{"-map-tasks", 8, 3, -4, 0},
	}
	for _, c := range cases {
		err := validateFlags(c.runs, c.maxFault, c.mapTasks, c.soak)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%d,%d,%d,%v) = %v, want error mentioning %q", c.runs, c.maxFault, c.mapTasks, c.soak, err, c.want)
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

// TestMain runs the command itself when CHAOS_ARGS is set: the usage tests
// re-run their own binary as chaos with those arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("CHAOS_ARGS"); args != "" {
		// A fresh flag set, so the test binary's own -test.* flags do not
		// count as set.
		flag.CommandLine = flag.NewFlagSet("chaos", flag.ExitOnError)
		os.Args = append([]string{"chaos"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wantUsageError runs chaos with args and fails t unless it exits 2, prints
// nothing on stdout and one line on stderr that names the tool once, as its
// prefix, and ends in named.
func wantUsageError(t *testing.T, args, named string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
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
	if msg := errs.String(); status != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || strings.Count(msg, "chaos:") != 1 || !strings.HasPrefix(msg, "chaos: ") || !strings.HasSuffix(msg, named) {
		t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one chaos: line ending %q", args, status, out.Len(), msg, named)
	}
}

// Regression: -replay silently ignored every flag but -soak, -runs and
// -workload, so `-replay f.json -racks 2 -scale 4 -tier ssd -max-faults 0`
// replayed the file at its own shape and exited 0. Any flag other than -v
// next to -replay is now a usage error: exit 2 and one chaos: line, before
// the file is read.
func TestReplayRejectsEveryOtherFlag(t *testing.T) {
	const replay = "-replay ../../internal/chaos/testdata/chaos/TS-corrupt-restart.json "
	for _, tc := range []struct{ args, named string }{
		{replay + "-racks 2 -scale 4 -tier ssd -max-faults 0", "with -max-faults, -racks, -scale, -tier\n"},
		{replay + "-v -seed 7", "with -seed\n"},
		{replay + "-parallel 2", "with -parallel\n"},
		{replay + "-out x", "with -out\n"},
	} {
		wantUsageError(t, tc.args, tc.named)
	}
}

// Regression: a schedule with a non-positive scale or slave count, or a
// negative map-task target, rack count or uplink rate, replayed on core's
// default testbed (1/1024, 10 slaves) and exited 0.
func TestReplayRejectsAnotherTestbed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	bad := `{"workload":"TS","plan":"kill-node@5ms:node=slave-01","scale":-5,"slaves":0,"map_task_target":-3,"racks":-2,"uplink_bps":-7}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	wantUsageError(t, "-replay "+path, "racks -2 and uplink_bps -7 not negative\n")
}

// Regression: a schedule that is not JSON, or whose scale is 0, printed
// "chaos: chaos: bad schedule: …": main prefixed an error that named the
// tool already.
func TestReplayBadScheduleNamesTheToolOnce(t *testing.T) {
	for _, tc := range []struct{ schedule, named string }{
		{`{"workload":"TS",`, "unexpected end of JSON input\n"},
		{`{"workload":"TS","plan":"kill-node@5ms:node=slave-01","scale":0,"slaves":3}`, "uplink_bps 0 not negative\n"},
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(tc.schedule), 0o644); err != nil {
			t.Fatal(err)
		}
		wantUsageError(t, "-replay "+path, tc.named)
	}
}

// Regression: `-map-tasks -4` (or 0) ran, exited 0 and printed what
// `-map-tasks 512` prints: core reads a non-positive target as its default.
func TestNonPositiveMapTasksIsUsageError(t *testing.T) {
	for _, n := range []string{"0", "-4"} {
		wantUsageError(t, "-runs 1 -workload TS -scale 262144 -slaves 3 -map-tasks "+n+" -v",
			"-map-tasks must be positive, got "+n+"\n")
	}
}
