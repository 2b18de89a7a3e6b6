package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Regression: -slaves 1 or 2 passed validation and panicked in hdfs.New
// ("fewer datanodes than the replication factor"), and -mem 0 reached
// mapred.New as zero-sized buffers and exited 1. Each is a usage error: exit
// 2 and one mrrun: line, before anything runs. The test re-runs its own
// binary as the command, with the arguments in MRRUN_ARGS.
func TestTestbedUsageErrors(t *testing.T) {
	if args := os.Getenv("MRRUN_ARGS"); args != "" {
		os.Args = append([]string{"mrrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-slaves 2", "-slaves 1", "-mem 0", "-mem -16"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTestbedUsageErrors$")
		cmd.Env = append(os.Environ(), "MRRUN_ARGS="+args)
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
		if msg := errs.String(); status != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mrrun: ") {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one mrrun: line", args, status, out.Len(), msg)
		}
	}
}
