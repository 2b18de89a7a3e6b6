package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"iochar/internal/core"
	"iochar/internal/iostat"
	"iochar/internal/stats"
)

// Regression: -slaves 1 or 2 passed validation and panicked in hdfs.New
// ("fewer datanodes than the replication factor"), -mem 0 reached
// mapred.New as zero-sized buffers and exited 1, and so did a fault plan
// naming a slave, rack or disk the testbed lacks, from the injector. Each
// is a usage error: exit 2 and one mrrun: line, before anything runs. The
// test re-runs its own binary as the command, with the arguments in
// MRRUN_ARGS.
func TestTestbedUsageErrors(t *testing.T) {
	if args := os.Getenv("MRRUN_ARGS"); args != "" {
		os.Args = append([]string{"mrrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-slaves 2", "-slaves 1", "-mem 0", "-mem -16",
		"-faults kill-node@1s:node=slave-10", "-racks 2 -faults partition@1s:rack=3,down=1s",
		"-faults fail-disk@1s:node=slave-01,disk=mr7"} {
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

// Regression: the iostat view printed group names in a 10-wide column, so a
// fault split's longer name (HDFS-survivors is 14 characters,
// MapReduce-recovering 20) pushed its numbers out from under the header.
// Every row's rMB/s pair must end where the header's rMB/s does.
func TestIostatColumnsAlignUnderLongGroupNames(t *testing.T) {
	series := func(v float64) *stats.Series {
		s := stats.NewSeries("")
		s.Add(time.Second, v)
		return s
	}
	group := func() *iostat.Report {
		return &iostat.Report{RMBs: series(12.5), WMBs: series(3), Util: series(40), AwaitMs: series(1.5), AvgrqSz: series(512)}
	}
	rep := &core.RunReport{HDFS: group(), MR: group(), Groups: map[string]*iostat.Report{
		"HDFS-survivors": group(), "MapReduce-recovering": group(), "masters": group(),
	}}
	var out bytes.Buffer
	writeIostat(&out, rep)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want a header and 5 groups:\n%s", len(lines), out.String())
	}
	end := strings.Index(lines[0], "rMB/s") + len("rMB/s")
	for i, name := range []string{"HDFS", "MapReduce", "HDFS-survivors", "MapReduce-recovering", "masters"} {
		row := lines[i+1]
		if !strings.HasPrefix(row, "  "+name+" ") {
			t.Errorf("row %d = %q, want group %s", i+1, row, name)
		}
		// The pair is "%7.1f / %6.1f": its mean ends where " / " starts.
		if got := strings.Index(row, " / ") + len(" / ") + 6; got != end {
			t.Errorf("%s's rMB/s ends at column %d, the header's at %d:\n%s\n%s", name, got, end, lines[0], row)
		}
	}
}
