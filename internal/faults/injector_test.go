package faults

import (
	"fmt"
	"reflect"
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

// TestStartRejectsBadTargets: Plan.Resolve rejects a target the testbed's
// shape lacks or the kind cannot take — node names, the master for a kind
// that needs a DataNode, TaskTracker or data disk, disk selectors, rack
// numbers and a cut meeting another through a rack's members — and Start,
// which resolves against its cluster's shape, fails with the same message.
func TestStartRejectsBadTargets(t *testing.T) {
	for _, tc := range []struct {
		plan  string
		racks int
		want  string
	}{
		{"kill-node@1s:node=slave-09", 1, `kill-node: unknown node "slave-09"`},
		{"drop-link@1s:node=slave-09,until=2s,prob=0.5", 1, `drop-link: unknown node "slave-09"`},
		{"partition@1s:nodes=slave-00+slave-09,down=1s", 1, `partition: unknown node "slave-09"`},
		{"kill-node@1s:node=slave-4", 1, `kill-node: unknown node "slave-4"`},
		{"kill-node@1s:node=master", 1, "kill-node: the master runs no DataNode, TaskTracker or data disk"},
		{"kill-datanode@1s:node=master", 1, "kill-datanode: the master runs no DataNode"},
		{"restart-node@1s:node=master,down=1s", 1, "restart-node: the master runs no DataNode"},
		{"restart-datanode@1s:node=master,down=1s", 1, "restart-datanode: the master runs no DataNode"},
		{"corrupt-block@1s:node=master", 1, "corrupt-block: the master runs no DataNode"},
		{"fail-disk@1s:node=master,disk=hdfs0", 1, "fail-disk: the master runs no DataNode"},
		{"slow-disk@1s:node=master,disk=mr0,factor=2", 1, "slow-disk: the master runs no DataNode"},
		{"fail-disk@1s:node=slave-00,disk=hdfs", 1, `bad disk selector "hdfs"`},
		{"fail-disk@1s:node=slave-00,disk=ssd0", 1, `bad disk role "ssd" in "ssd0"`},
		{"slow-disk@1s:node=slave-00,disk=mr9,factor=2", 1, "node slave-00 has no mr volume 9"},
		{"fail-disk@1s:node=slave-01,disk=data5", 1, "node slave-01 has no data volume 5"},
		{"slow-disk@1s:disk=hdfs0,factor=2", 1, "slow-disk needs node= and disk= to target a cluster"},
		{"slow-disk@1s:node=slave-00,factor=2", 1, "slow-disk needs node= and disk= to target a cluster"},
		{"partition@1s:rack=1,down=1s", 1, "partition targets rack 1 on a flat network"},
		{"slow-link@1s:rack=1,factor=2", 1, "slow-link targets rack 1 on a flat network"},
		{"partition@1s:rack=3,down=1s", 2, "partition: rack 3 out of range (cluster has 2)"},
		{"slow-link@1s:rack=3,factor=2", 2, "slow-link: rack 3 out of range (cluster has 2)"},
		// slave-01 is in rack 2: the rack cut would reunite it at 2s.
		{"partition@1s:nodes=slave-01,down=2s;partition@2s:rack=2,down=5s", 2,
			"partition@2s:rack=2,down=5s overlaps an in-flight partition window on the same nodes"},
		// The master is in rack 1.
		{"partition@1s:rack=1,down=2s;partition@2s:nodes=master,down=1s", 2,
			"partition@2s:nodes=master,down=1s overlaps an in-flight partition window on the same nodes"},
		// A live node with no volume of a role left to write to.
		{"fail-disk@1s:node=slave-00,disk=mr0;fail-disk@2s:node=slave-00,disk=mr1;fail-disk@3s:node=slave-00,disk=mr2", 1,
			"fail-disk@3s:node=slave-00,disk=mr2 fails the last mr volume of slave-00"},
		{"fail-disk@1s:node=slave-00,disk=hdfs0;fail-disk@2s:node=slave-00,disk=data1;fail-disk@3s:node=slave-00,disk=hdfs2", 1,
			"fail-disk@3s:node=slave-00,disk=hdfs2 fails the last hdfs volume of slave-00"},
	} {
		env, cl, fs, rt := testbed(t, tc.racks)
		_, err := mustPlan(t, tc.plan).Resolve(len(cl.Slaves), tc.racks, false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%q) on %d rack(s) = %v, want an error containing %q", tc.plan, tc.racks, err, tc.want)
		}
		if err2 := New(env, cl, fs, rt, mustPlan(t, tc.plan)).Start(); err2 == nil || err == nil || err2.Error() != err.Error() {
			t.Errorf("Start(%q) on %d rack(s) = %v, want Resolve's %v", tc.plan, tc.racks, err2, err)
		}
	}
	// What a testbed has passes: its last slave, every disk of each role
	// (data5 only pooled), a rack of a two-rack fabric, and the master as a
	// network kind's target.
	for _, tc := range []struct {
		plan   string
		racks  int
		pooled bool
	}{
		{"kill-node@1s:node=slave-03;slow-disk@2s:node=slave-00,disk=mr2,factor=2", 1, false},
		{"fail-disk@1s:node=slave-01,disk=hdfs2;partition@2s:rack=2,down=1s", 2, false},
		{"fail-disk@1s:node=slave-01,disk=data5", 1, true},
		{"partition@1s:nodes=master,down=1s;slow-link@2s:node=master,factor=2;drop-link@3s:node=master,until=4s,prob=0.5", 1, false},
		// Volumes left on each list: hdfs0 and data0 are one volume, and
		// pooled roles share six.
		{"fail-disk@1s:node=slave-00,disk=hdfs0;fail-disk@2s:node=slave-00,disk=data0;fail-disk@3s:node=slave-00,disk=hdfs1;" +
			"fail-disk@4s:node=slave-00,disk=mr0;fail-disk@5s:node=slave-00,disk=mr1;fail-disk@6s:node=slave-01,disk=mr2", 1, false},
		{"fail-disk@1s:node=slave-00,disk=mr0;fail-disk@2s:node=slave-00,disk=hdfs1;fail-disk@3s:node=slave-00,disk=data2;" +
			"fail-disk@4s:node=slave-00,disk=mr3;fail-disk@5s:node=slave-00,disk=data4", 1, true},
	} {
		if _, err := mustPlan(t, tc.plan).Resolve(4, tc.racks, tc.pooled); err != nil {
			t.Errorf("Resolve(%q) on 4 slaves, %d rack(s), pooled %v: %v", tc.plan, tc.racks, tc.pooled, err)
		}
	}
	const sixth = "fail-disk@1s:node=slave-00,disk=mr0;fail-disk@2s:node=slave-00,disk=hdfs1;fail-disk@3s:node=slave-00,disk=data2;" +
		"fail-disk@4s:node=slave-00,disk=mr3;fail-disk@5s:node=slave-00,disk=data4;fail-disk@6s:node=slave-00,disk=hdfs5"
	if _, err := mustPlan(t, sixth).Resolve(4, 1, true); err == nil || !strings.Contains(err.Error(), "fails the last hdfs volume of slave-00") {
		t.Errorf("Resolve(%q) pooled = %v, want the last pooled volume refused", sixth, err)
	}
}

// TestResolvedRackMatchesNetwork: the members Resolve names for a rack from
// the testbed's shape are the nodes cluster.New registered in that rack, in
// registration order (the order the network lists its NICs in) — the order
// the partition's heal line prints.
func TestResolvedRackMatchesNetwork(t *testing.T) {
	for racks := 1; racks <= 3; racks++ {
		_, cl, _, _ := testbed(t, racks)
		for r := 0; r < racks; r++ {
			var want []string
			for _, nic := range cl.Net.Stats().NICs {
				if cl.Net.RackOf(nic.Node) == r {
					want = append(want, nic.Node)
				}
			}
			if got := rackNodes(r, len(cl.Slaves), racks); !reflect.DeepEqual(got, want) {
				t.Errorf("%d racks: rack %d resolves to %q, want %q", racks, r, got, want)
			}
			if racks == 1 {
				continue
			}
			targets, err := mustPlan(t, fmt.Sprintf("partition@1s:rack=%d,down=1s", r+1)).Resolve(len(cl.Slaves), racks, false)
			if err != nil || !reflect.DeepEqual(targets[0].members, want) {
				t.Errorf("%d racks: partition of rack %d cuts %q (%v), want %q", racks, r+1, targets, err, want)
			}
		}
	}
}

// TestStartNeedsItsSubsystems: a master restart on a cluster whose master
// is not journaled is refused at Start, not at its firing.
func TestStartNeedsItsSubsystems(t *testing.T) {
	env, cl, fs, rt := testbed(t, 1)
	for _, tc := range []struct{ plan, want string }{
		{"restart-namenode@1s:down=1s", "restart-namenode needs master recovery enabled"},
		{"restart-jobtracker@1s:down=1s", "restart-jobtracker needs master recovery enabled"},
	} {
		err := New(env, cl, fs, rt, mustPlan(t, tc.plan)).Start()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Start(%q) = %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
}

// TestStartErrorFiresNothing: the events a refused plan armed before its
// bad one never fire.
func TestStartErrorFiresNothing(t *testing.T) {
	env, cl, fs, rt := testbed(t, 1)
	in := New(env, cl, fs, rt, mustPlan(t, "kill-node@1s:node=slave-01;restart-namenode@2s:down=1s"))
	if err := in.Start(); err == nil {
		t.Fatal("Start accepted a NameNode restart without master recovery")
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
