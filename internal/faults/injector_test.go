package faults

import (
	"strings"
	"testing"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// testbed is a bare four-slave cluster (slave i in rack i%racks) with HDFS
// and MapReduce on and neither master journaled.
func testbed(t *testing.T, racks int) (*sim.Env, *cluster.Cluster, *hdfs.FS, *mapred.Runtime) {
	t.Helper()
	env := sim.New(1)
	hw := cluster.DefaultHardware(4096)
	hw.Racks = racks
	cl, err := cluster.New(env, hw, 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(env, hdfs.DefaultConfig(4096), cl.Net, cl.Slaves)
	rt, err := mapred.New(env, cl, fs, mapred.DefaultConfig(4096))
	if err != nil {
		t.Fatal(err)
	}
	return env, cl, fs, rt
}

func mustPlan(t *testing.T, s string) Plan {
	t.Helper()
	pl, err := ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return pl
}

// TestStartRejectsBadTargets covers the targets a plan can only be checked
// against once there is a cluster: node names, disk selectors, rack numbers
// and a nodes= cut meeting a rack= cut. Plan.CheckTargets finds the node,
// disk and rack ones (before) from the testbed's shape alone, with Start's
// message.
func TestStartRejectsBadTargets(t *testing.T) {
	for _, tc := range []struct {
		plan   string
		racks  int
		before bool
		want   string
	}{
		{"kill-node@1s:node=slave-09", 1, true, `kill-node: unknown node "slave-09"`},
		{"drop-link@1s:node=slave-09,until=2s,prob=0.5", 1, true, `drop-link: unknown node "slave-09"`},
		{"partition@1s:nodes=slave-00+slave-09,down=1s", 1, true, `partition: unknown node "slave-09"`},
		{"kill-node@1s:node=slave-4", 1, true, `kill-node: unknown node "slave-4"`},
		{"fail-disk@1s:node=slave-00,disk=hdfs", 1, true, `bad disk selector "hdfs"`},
		{"fail-disk@1s:node=slave-00,disk=ssd0", 1, true, `bad disk role "ssd" in "ssd0"`},
		{"slow-disk@1s:node=slave-00,disk=mr9,factor=2", 1, true, "node slave-00 has no mr volume 9"},
		{"fail-disk@1s:node=master,disk=hdfs0", 1, true, "node master has no hdfs volume 0"},
		{"fail-disk@1s:disk=hdfs0", 1, false, "fail-disk needs node= to target a cluster"},
		{"slow-disk@1s:node=slave-00,factor=2", 1, false, "slow-disk needs node= and disk= to target a cluster"},
		{"partition@1s:rack=1,down=1s", 1, true, "partition targets rack 1 on a flat network"},
		{"slow-link@1s:rack=1,factor=2", 1, true, "slow-link targets rack 1 on a flat network"},
		{"partition@1s:rack=3,down=1s", 2, true, "partition: rack 3 out of range (cluster has 2)"},
		{"slow-link@1s:rack=3,factor=2", 2, true, "slow-link: rack 3 out of range (cluster has 2)"},
		// slave-01 is in rack 2: the rack cut would reunite it at 2s.
		{"partition@1s:nodes=slave-01,down=2s;partition@2s:rack=2,down=5s", 2, false,
			"partition@2s:rack=2,down=5s overlaps an in-flight partition window on the same nodes"},
	} {
		env, cl, fs, rt := testbed(t, tc.racks)
		err := New(env, cl, fs, rt, mustPlan(t, tc.plan)).Start()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Start(%q) on %d rack(s) = %v, want an error containing %q", tc.plan, tc.racks, err, tc.want)
		}
		err = mustPlan(t, tc.plan).CheckTargets(len(cl.Slaves), tc.racks, false)
		if (err != nil) != tc.before || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckTargets(%q) on %d rack(s) = %v, want an error (%v) containing %q", tc.plan, tc.racks, err, tc.before, tc.want)
		}
	}
	// What a testbed has passes: its last slave, every disk of each role
	// (data5 only pooled), a rack of a two-rack fabric.
	for _, tc := range []struct {
		plan   string
		racks  int
		pooled bool
	}{
		{"kill-node@1s:node=slave-03;slow-disk@2s:node=slave-00,disk=mr2,factor=2", 1, false},
		{"fail-disk@1s:node=slave-01,disk=hdfs2;partition@2s:rack=2,down=1s", 2, false},
		{"fail-disk@1s:node=slave-01,disk=data5", 1, true},
	} {
		if err := mustPlan(t, tc.plan).CheckTargets(4, tc.racks, tc.pooled); err != nil {
			t.Errorf("CheckTargets(%q) on 4 slaves, %d rack(s), pooled %v: %v", tc.plan, tc.racks, tc.pooled, err)
		}
	}
	if err := mustPlan(t, "fail-disk@1s:node=slave-01,disk=data5").CheckTargets(4, 1, false); err == nil {
		t.Error("CheckTargets accepted data5 on a dedicated layout of three HDFS disks")
	}
}

// TestStartNeedsItsSubsystems: a kind whose HDFS, MapReduce or journaled
// master instance is missing is refused at Start, not at its firing.
func TestStartNeedsItsSubsystems(t *testing.T) {
	env, cl, fs, rt := testbed(t, 1)
	for _, tc := range []struct {
		plan string
		fs   *hdfs.FS
		rt   *mapred.Runtime
		want string
	}{
		{"kill-datanode@1s:node=slave-00", nil, rt, "kill-datanode without an HDFS instance"},
		{"restart-datanode@1s:node=slave-00,down=1s", nil, rt, "restart-datanode without an HDFS instance"},
		{"corrupt-block@1s:node=slave-00", nil, rt, "corrupt-block without an HDFS instance"},
		{"kill-node@1s:node=slave-00", fs, nil, "kill-node without HDFS and MapReduce instances"},
		{"restart-node@1s:node=slave-00,down=1s", nil, rt, "restart-node without HDFS and MapReduce instances"},
		{"drop-shuffle@1s:until=2s,prob=0.5", fs, nil, "drop-shuffle without a MapReduce instance"},
		{"restart-namenode@1s:down=1s", nil, rt, "restart-namenode needs master recovery enabled"},
		{"restart-namenode@1s:down=1s", fs, rt, "restart-namenode needs master recovery enabled"},
		{"restart-jobtracker@1s:down=1s", fs, nil, "restart-jobtracker needs master recovery enabled"},
		{"restart-jobtracker@1s:down=1s", fs, rt, "restart-jobtracker needs master recovery enabled"},
	} {
		err := New(env, cl, tc.fs, tc.rt, mustPlan(t, tc.plan)).Start()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Start(%q) = %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
}

// TestStartErrorFiresNothing: the events a refused plan armed before its
// bad one never fire.
func TestStartErrorFiresNothing(t *testing.T) {
	env, cl, fs, rt := testbed(t, 1)
	in := New(env, cl, fs, rt, mustPlan(t, "kill-node@1s:node=slave-01;kill-node@2s:node=slave-09"))
	if err := in.Start(); err == nil {
		t.Fatal("Start accepted an unknown node")
	}
	if _, err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := in.Fired(); len(got) != 0 {
		t.Errorf("refused plan fired %q", got)
	}
	if !cl.FindNode("slave-01").Alive() || cl.Net.Down("slave-01") {
		t.Error("refused plan killed slave-01")
	}
}

// TestStopLeavesLaterEventsUnfired: an injector stopped before an event's
// time leaves the event unfired and the cluster untouched, and a restart
// stopped mid-outage never rejoins.
func TestStopLeavesLaterEventsUnfired(t *testing.T) {
	env, cl, fs, rt := testbed(t, 1)
	in := New(env, cl, fs, rt, mustPlan(t, "restart-node@1s:node=slave-02,down=2s;kill-node@3s:node=slave-01"))
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	env.After(2*time.Second, in.Stop)
	if _, err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"t=1s restart-node@1s:node=slave-02,down=2s"}
	if got := in.Fired(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fired %q, want %q", got, want)
	}
	if !cl.FindNode("slave-01").Alive() || cl.Net.Down("slave-01") {
		t.Error("kill-node fired after Stop")
	}
	if cl.FindNode("slave-02").Alive() || !cl.Net.Down("slave-02") {
		t.Error("restart-node rejoined after Stop")
	}
}
