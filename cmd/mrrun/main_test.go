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
	"iochar/internal/faults"
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
		status, out, msg := mrrun(t, args)
		if status != 2 || len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mrrun: ") {
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one mrrun: line", args, status, len(out), msg)
		}
	}
}

// Regression: kill-node, kill-datanode, restart-node and restart-datanode
// aimed at the master passed the plan checks and panicked at their firing
// ("hdfs: CrashDataNode: no datanode on master"), and corrupt-block at the
// master was a silent no-op. The master runs no DataNode, TaskTracker or
// data disk, so each is a usage error: exit 2 and one mrrun: line, no
// panic. The network kinds still target it and run.
func TestFaultsOnTheMaster(t *testing.T) {
	for _, tc := range []struct {
		plan   string
		status int
	}{
		{"kill-node@300ms:node=master", 2},
		{"kill-datanode@300ms:node=master", 2},
		{"restart-node@300ms:node=master,down=50ms", 2},
		{"restart-datanode@300ms:node=master,down=50ms", 2},
		{"corrupt-block@300ms:node=master", 2},
		{"partition@100ms:nodes=master,down=50ms", 0},
		{"slow-link@100ms:node=master,factor=4", 0},
		{"drop-link@100ms:node=master,until=300ms,prob=0.3", 0},
	} {
		status, out, msg := mrrun(t, "-scale 65536 -slaves 4 -faults "+tc.plan)
		switch {
		case status != tc.status || strings.Contains(msg, "panic"):
			t.Errorf("%s: status %d, stderr %q; want %d and no panic", tc.plan, status, msg, tc.status)
		case status == 2 && (len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mrrun: ")):
			t.Errorf("%s: %d bytes out, stderr %q; want none and one mrrun: line", tc.plan, len(out), msg)
		}
	}
}

// TestPlanCrossEventRules: two events of a plan may not hold one target at
// once — a restart's victim (a slave, the NameNode or the JobTracker), a
// drop-link's node, or a node a partition cuts off — and a plan may not
// repeat an event. Each refused plan fails ParsePlan or Resolve on mrrun's
// testbed and exits 2 with one mrrun: line; each allowed plan passes both
// and runs to exit 0. Back-to-back windows do not overlap, and the three
// kinds of hold are separate: a lossy window or a cut over a restarting
// node, and a NameNode outage over a JobTracker one, are allowed. On four
// slaves and two racks, rack 1 holds the master, slave-00 and slave-02.
func TestPlanCrossEventRules(t *testing.T) {
	for _, tc := range []struct {
		plan    string
		allowed bool
	}{
		{"restart-node@100ms:node=slave-01,down=50ms;restart-node@120ms:node=slave-01,down=50ms", false},
		{"restart-datanode@100ms:node=slave-01,down=50ms;restart-datanode@120ms:node=slave-01,down=50ms", false},
		{"restart-datanode@100ms:node=slave-02,down=50ms;restart-node@120ms:node=slave-02,down=50ms", false},
		{"restart-namenode@100ms:down=50ms;restart-namenode@120ms:down=50ms", false},
		{"restart-jobtracker@100ms:down=50ms;restart-jobtracker@120ms:down=50ms", false},
		{"drop-link@100ms:node=slave-01,until=200ms,prob=0.3;drop-link@150ms:node=slave-01,until=250ms,prob=0.3", false},
		{"kill-datanode@100ms:node=slave-01;kill-datanode@100ms:node=slave-01", false},
		{"partition@100ms:nodes=slave-00+slave-01,down=200ms;partition@150ms:nodes=slave-01+slave-02,down=50ms", false},
		{"partition@100ms:rack=2,down=200ms;partition@150ms:rack=2,down=50ms", false},
		{"partition@100ms:nodes=slave-00+slave-01,down=200ms;partition@150ms:rack=1,down=50ms", false},

		{"restart-node@100ms:node=slave-01,down=50ms;restart-node@150ms:node=slave-01,down=50ms", true},
		{"restart-namenode@100ms:down=50ms;restart-namenode@150ms:down=50ms", true},
		{"drop-link@100ms:node=slave-01,until=150ms,prob=0.3;drop-link@150ms:node=slave-01,until=200ms,prob=0.3", true},
		{"restart-node@100ms:node=slave-01,down=100ms;drop-link@120ms:node=slave-01,until=250ms,prob=0.3", true},
		{"restart-node@100ms:node=slave-01,down=100ms;partition@120ms:nodes=slave-01,down=50ms", true},
		{"restart-namenode@100ms:down=50ms;restart-jobtracker@120ms:down=50ms", true},
		{"partition@100ms:nodes=slave-00+slave-01,down=200ms;partition@150ms:nodes=slave-02+slave-03,down=50ms", true},
		{"partition@100ms:nodes=slave-00+slave-01,down=50ms;partition@200ms:nodes=slave-00+slave-01,down=50ms", true},
		{"partition@100ms:rack=1,down=200ms;partition@150ms:rack=2,down=50ms", true},
		{"partition@100ms:nodes=slave-01+slave-03,down=200ms;partition@150ms:rack=1,down=50ms", true},
	} {
		pl, err := faults.ParsePlan(tc.plan)
		if err == nil {
			_, err = pl.Resolve(4, 2, false)
		}
		if (err == nil) != tc.allowed {
			t.Errorf("%s: ParsePlan+Resolve = %v, want allowed %v", tc.plan, err, tc.allowed)
		}
		status, out, msg := mrrun(t, "-scale 65536 -slaves 4 -racks 2 -faults "+tc.plan)
		switch {
		case tc.allowed && status != 0:
			t.Errorf("%s: status %d, stderr %q; want 0", tc.plan, status, msg)
		case !tc.allowed && (status != 2 || len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mrrun: ")):
			t.Errorf("%s: status %d, %d bytes out, stderr %q; want 2, none and one mrrun: line", tc.plan, status, len(out), msg)
		}
	}
}

// mrrun runs the test binary as the command with args, through
// TestTestbedUsageErrors, whose first lines run main with MRRUN_ARGS, and
// returns its exit status, stdout and stderr.
func mrrun(t *testing.T, args string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestTestbedUsageErrors$")
	cmd.Env = append(os.Environ(), "MRRUN_ARGS="+args)
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
