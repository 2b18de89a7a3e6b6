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
		cmd := exec.Command(os.Args[0], "-test.run=^TestReplayRejectsPatternFlags$")
		cmd.Env = append(os.Environ(), "IOSIM_ARGS="+args)
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
		prefix := "iosim: " + strings.Fields(args)[0] + " " // the flag named first
		if msg := errs.String(); status != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, tc.named) {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one %q line ending %q", args, status, out.Len(), msg, prefix, tc.named)
		}
	}
	// The device flags stay valid: this one gets as far as opening the file.
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplayRejectsPatternFlags$")
	cmd.Env = append(os.Environ(), "IOSIM_ARGS="+replay+"-dev slave-00.mr0 -sched fifo -nomerge")
	if out, err := cmd.CombinedOutput(); !strings.Contains(string(out), "no such file") {
		t.Errorf("-dev, -sched and -nomerge next to -replay: %v, output %q; want the trace's open error", err, out)
	}
}
