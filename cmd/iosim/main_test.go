package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Regression: -replay ignored -faults and the pattern flags, so
// `-replay t.csv -faults "slow-disk@1ns:factor=8"` printed what it printed
// without the plan, and `-streams 0 -pattern foo` was accepted. Next to
// -replay, only -dev, -sched and -nomerge are valid; any other flag is a
// usage error (exit 2 and one iosim: line) before the trace is read, so a
// trace file that does not exist is never opened. And -dev, which names a
// device within the trace, ran the default pattern without -replay; it is a
// usage error too. The test re-runs its own binary as the command, with the
// arguments in IOSIM_ARGS.
func TestReplayRejectsPatternFlags(t *testing.T) {
	if args := os.Getenv("IOSIM_ARGS"); args != "" {
		// A fresh flag set, so the test binary's own -test.* flags do not
		// count as set.
		flag.CommandLine = flag.NewFlagSet("iosim", flag.ExitOnError)
		os.Args = append([]string{"iosim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	replay := "-replay " + t.TempDir() + "/missing.csv "
	for _, tc := range []struct{ args, named string }{
		{replay + "-faults slow-disk@1ns:factor=8", "with -faults\n"},
		{replay + "-streams 0 -pattern foo", "with -pattern, -streams\n"},
		{replay + "-op write", "with -op\n"},
		{replay + "-reqkb 4", "with -reqkb\n"},
		{replay + "-seconds 3", "with -seconds\n"},
		{replay + "-dev slave-00.mr0 -sched fifo -nomerge -seed 2", "with -seed\n"},
		{"-dev sda -seconds 1", "needs -replay\n"},
	} {
		args := tc.args
		status, out, msg := iosim(t, args)
		prefix := "iosim: " + strings.Fields(args)[0] + " " // the flag named first
		if status != 2 || len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, tc.named) {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one %q line ending %q", args, status, len(out), msg, prefix, tc.named)
		}
	}
	// The device flags stay valid: this one gets as far as opening the file.
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplayRejectsPatternFlags$")
	cmd.Env = append(os.Environ(), "IOSIM_ARGS="+replay+"-dev slave-00.mr0 -sched fifo -nomerge")
	if out, err := cmd.CombinedOutput(); !strings.Contains(string(out), "no such file") {
		t.Errorf("-dev, -sched and -nomerge next to -replay: %v, output %q; want the trace's open error", err, out)
	}
}

// Regression: a slow-disk that names a node or a disk ran, and slowed
// iosim's one device as if the target were there. The standalone model has
// no cluster to resolve a target against, so it is a usage error: exit 2
// and one iosim: line. The bare form still runs.
func TestSlowDiskTargetRejected(t *testing.T) {
	for _, plan := range []string{
		"slow-disk@1s:node=slave-07,disk=mr9,factor=4",
		"slow-disk@1s:node=slave-00,factor=4",
		"slow-disk@1s:disk=mr0,factor=4",
	} {
		status, out, msg := iosim(t, "-seconds 2 -faults "+plan)
		if status != 2 || len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "iosim: ") {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one iosim: line", plan, status, len(out), msg)
		}
	}
	if status, _, msg := iosim(t, "-seconds 2 -faults slow-disk@1s:factor=4"); status != 0 {
		t.Errorf("bare slow-disk: status %d, stderr %q; want 0", status, msg)
	}
}

// iosim runs the test binary as the command with args, through
// TestReplayRejectsPatternFlags, whose first lines run main with IOSIM_ARGS,
// and returns its exit status, stdout and stderr.
func iosim(t *testing.T, args string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplayRejectsPatternFlags$")
	cmd.Env = append(os.Environ(), "IOSIM_ARGS="+args)
	var out, errs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errs
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		status = exit.ExitCode()
	}
	return status, out.String(), errs.String()
}
