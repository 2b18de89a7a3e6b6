package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Regression: a non-positive -bytes reached make with a negative length
// (TeraGen's one-record minimum let -1000 through as -10 records; the other
// kinds sized their buffer as size plus a margin) and panicked. The test
// re-runs its own binary as the command, with the arguments in
// DATAGEN_ARGS.
func TestNonPositiveBytesIsUsageError(t *testing.T) {
	if args := os.Getenv("DATAGEN_ARGS"); args != "" {
		os.Args = append([]string{"datagen"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	datagen := func(args string) (status int, stdout, stderr string) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveBytesIsUsageError$")
		cmd.Env = append(os.Environ(), "DATAGEN_ARGS="+args)
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
	for _, kind := range []string{"text", "table", "points", "graph"} {
		for _, size := range []string{"0", "-1", "-1000"} {
			args := "-kind " + kind + " -bytes " + size
			status, out, msg := datagen(args)
			if status != 2 || out != "" || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "datagen: ") {
				t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one datagen: line", args, status, len(out), msg)
			}
		}
	}
	// A negative -part wrapped the row ids (part<<40 as uint64) and exited 0;
	// so did -part 16777216, whose part<<40 wraps to part 0's ids.
	for _, part := range []string{"-1", "16777216", "9223372036854775807"} {
		if status, out, msg := datagen("-part " + part); status != 2 || out != "" || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "datagen: ") {
			t.Errorf("-part %s: status %d, %d bytes out, stderr %q; want 2, none and one datagen: line", part, status, len(out), msg)
		}
	}
	if status, out, msg := datagen("-part 16777215 -bytes 100"); status != 0 || !strings.Contains(out, "0018446742974197923840") {
		t.Errorf("-part 16777215: status %d, output %q (stderr %q); want 0 and row id 18446742974197923840", status, out, msg)
	}
	if status, out, msg := datagen("-bytes 1"); status != 0 || len(out) != 100 {
		t.Errorf("-bytes 1: status %d, %d bytes out (stderr %q); want 0 and one 100-byte record", status, len(out), msg)
	}
}
