package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/hdfs"
	"iochar/internal/sim"
	"iochar/internal/trace"
)

// runIochar re-runs the test binary as the command with args, through
// TestMain's IOCHAR_ARGS hook, and returns its exit status and output.
func runIochar(t *testing.T, args string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IOCHAR_ARGS="+args)
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

func TestMain(m *testing.M) {
	if args := os.Getenv("IOCHAR_ARGS"); args != "" {
		os.Args = append([]string{"iochar"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Regression: -figure 13 and -table 4 exited 1 from the sweep, and a trace
// file that cannot be created failed only after the figure was simulated and
// printed; a repeated flag kept its last value. Each now fails before
// anything runs, with one iochar: line and nothing on stdout: an unknown
// figure or table and a repeated flag as usage errors (2), the trace file as
// a failure (1).
func TestFailuresBeforeAnythingRuns(t *testing.T) {
	for _, tc := range []struct {
		args   string
		status int
	}{
		{"-figure 13", 2},
		{"-table 4", 2},
		{"-figure 1 -table 4", 2},
		{"-figure -1", 2},
		{"-figure 1 -trace-out " + t.TempDir() + "/missing/x.csv", 1},
		{"-figure 5 -figure 6", 2}, // printed only Figure 6 and exited 0
		{"-table 6 -table 7", 2},   // printed only Table 7 and exited 0
		{"-scale 262144 -figure 1 -scale 4096", 2},
	} {
		status, out, msg := runIochar(t, tc.args)
		if status != tc.status || out != "" || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "iochar: ") {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want %d, none and one iochar: line", tc.args, status, len(out), msg, tc.status)
		}
	}
}

// Regression: -figure took the flag switch's first case and dropped -table.
// Both render, the figure first, as under -all.
func TestFigureAndTableBothRender(t *testing.T) {
	status, out, msg := runIochar(t, "-scale 262144 -slaves 3 -figure 1 -table 6")
	fig, tab := strings.Index(out, "Figure 1:"), strings.Index(out, "Table 6:")
	if status != 0 || fig < 0 || tab < fig {
		t.Errorf("status %d, Figure 1 at %d and Table 6 at %d of stdout; stderr %q", status, fig, tab, msg)
	}
}

// Regression: -attr and -hist printed aligned terminal tables under -csv,
// which Tables 5–7 honour. Both now print their header as a CSV line.
func TestExtensionTablesHonourCSV(t *testing.T) {
	status, out, msg := runIochar(t, "-scale 262144 -slaves 3 -attr -hist -csv")
	for _, header := range []string{"stage,AGG,TS,KM,PR\n", "workload,group,metric,p50,p95,p99,max\n"} {
		if status != 0 || !strings.Contains(out, header) {
			t.Errorf("status %d, stdout lacks the CSV header %q:\n%s\nstderr %q", status, header, out, msg)
		}
	}
	if strings.Contains(out, "  ") {
		t.Errorf("aligned terminal output under -csv:\n%s", out)
	}
}

// Regression: -trace-out simulated the four baseline cells again after
// -attr and -hist had resolved them through the suite, whose reports carry
// the disk log the trace is written from. Driven as main drives the suite
// under -hist -attr -trace-out, each baseline cell now runs once.
func TestTraceOutReusesTheSuitesRuns(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	count := core.WithInspect(func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
		mu.Lock()
		defer mu.Unlock()
		runs[strings.Split(fs.List("/bench/")[0], "/")[2]]++ // /bench/<KEY>/...
	})
	s := core.NewSuite(core.NewOptions(core.WithScale(262144), core.WithSlaves(3), count))
	if _, err := s.AttributionTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LatencyTable(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.csv"
	sink, err := trace.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTraces(context.Background(), s, sink, path); err != nil {
		t.Fatal(err)
	}
	for _, w := range core.WorkloadOrder {
		if runs[w.String()] != 1 {
			t.Errorf("%s: %d simulated runs, want 1", w, runs[w.String()])
		}
	}
	if len(runs) != len(core.WorkloadOrder) {
		t.Errorf("runs by workload %v, want one of each of %v", runs, core.WorkloadOrder)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range core.WorkloadOrder {
		if !bytes.Contains(data, []byte("\n"+w.String()+":slave-")) {
			t.Errorf("the trace has no record of %s's disks", w)
		}
	}
}
