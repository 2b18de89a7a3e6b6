package hdfs

import (
	"bytes"
	"testing"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/sim"
)

// rackRig is rig with a multi-rack network: slave i lands in rack i%racks
// behind a ToR switch, and the FS is given the master node so client RPCs
// are topology-aware.
func rackRig(nSlaves, racks int) (*sim.Env, *cluster.Cluster, *FS) {
	env := sim.New(1)
	hw := cluster.DefaultHardware(4096)
	hw.Racks = racks
	c, err := cluster.New(env, hw, nSlaves)
	if err != nil {
		panic(err)
	}
	fs := New(env, DefaultConfig(4096), c.Net, c.Slaves)
	fs.SetMasterNode(c.Master.Name)
	return env, c, fs
}

// TestRackAwarePlacementSpread pins Hadoop's default multi-rack placement
// for every possible writer: the first replica is writer-local, and the
// remaining two share one rack that is not the writer's.
func TestRackAwarePlacementSpread(t *testing.T) {
	env, c, fs := rackRig(6, 3)
	env.Go("client", func(p *sim.Proc) {
		for _, s := range c.Slaves {
			w := fs.CreateWith("/spread/"+s.Name, s.Name, 0)
			w.Write(p, pattern(150_000))
			w.Close(p)
		}
	})
	env.Run(0)
	for _, s := range c.Slaves {
		locs, err := fs.BlockLocations("/spread/" + s.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range locs {
			if len(l) != 3 {
				t.Fatalf("writer %s block %d: %d replicas, want 3", s.Name, i, len(l))
			}
			if l[0] != s.Name {
				t.Errorf("writer %s block %d: first replica on %s, want writer-local", s.Name, i, l[0])
			}
			writerRack := c.Net.RackOf(s.Name)
			r1, r2 := c.Net.RackOf(l[1]), c.Net.RackOf(l[2])
			if r1 != r2 {
				t.Errorf("writer %s block %d: remote replicas split racks %d and %d, want one common rack", s.Name, i, r1, r2)
			}
			if r1 == writerRack {
				t.Errorf("writer %s block %d: remote replicas landed in the writer's rack %d", s.Name, i, writerRack)
			}
		}
	}
}

// TestReadFailoverDuringPartition: with the writer's replica partitioned
// away, a reader on another node must fail over to a remote-rack replica
// without stalling — the other replicas are reachable throughout.
func TestReadFailoverDuringPartition(t *testing.T) {
	env, c, fs := rackRig(4, 2)
	fs.EnableRecovery(RecoveryConfig{HeartbeatInterval: 10 * time.Second, DeadTimeout: 100 * time.Second})
	writer, reader := c.Slaves[0], c.Slaves[2] // both rack 0; replicas 2+3 land in rack 1
	want := pattern(180_000)
	env.Go("driver", func(p *sim.Proc) {
		defer fs.StopRecovery()
		w := fs.CreateWith("/cut", writer.Name, 0)
		w.Write(p, want)
		w.Close(p)
		c.Net.Partition("cut-writer", []string{writer.Name})
		r, err := fs.Open("/cut", reader.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read during writer partition: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("failover read returned wrong bytes")
		}
		c.Net.Heal("cut-writer")
	})
	env.Run(0)
	if st := fs.RecoveryStats(); st.NetStalls != 0 {
		t.Errorf("NetStalls = %d; reachable replicas should satisfy the read without stalling", st.NetStalls)
	}
}

// TestReadWaitsOutPartitionHeal: when every replica holder is partitioned
// away from the reader, the read must park in the net-retry backoff loop
// and complete once the partition heals — not fail, not spin.
func TestReadWaitsOutPartitionHeal(t *testing.T) {
	env, c, fs := rackRig(4, 2)
	fs.EnableRecovery(RecoveryConfig{HeartbeatInterval: 10 * time.Second, DeadTimeout: 100 * time.Second})
	writer, reader := c.Slaves[0], c.Slaves[2]
	want := pattern(120_000)
	const healAt = 2 * time.Second
	var doneAt time.Duration
	env.Go("driver", func(p *sim.Proc) {
		defer fs.StopRecovery()
		w := fs.CreateWith("/healed", writer.Name, 0)
		w.Write(p, want)
		w.Close(p)
		locs, err := fs.BlockLocations("/healed")
		if err != nil {
			t.Fatal(err)
		}
		holders := map[string]bool{}
		for _, l := range locs {
			for _, n := range l {
				holders[n] = true
			}
		}
		if holders[reader.Name] {
			t.Fatalf("test setup: reader %s holds a replica", reader.Name)
		}
		cut := make([]string, 0, len(holders))
		for _, s := range c.Slaves {
			if holders[s.Name] {
				cut = append(cut, s.Name)
			}
		}
		start := env.Now()
		env.After(healAt, func() { c.Net.Heal("cut-all") })
		c.Net.Partition("cut-all", cut)
		r, err := fs.Open("/healed", reader.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read across partition heal: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("post-heal read returned wrong bytes")
		}
		doneAt = env.Now() - start
	})
	env.Run(0)
	if doneAt < healAt {
		t.Errorf("read completed at +%v, before the heal at +%v", doneAt, healAt)
	}
	if st := fs.RecoveryStats(); st.NetStalls == 0 {
		t.Error("no NetStalls recorded while every replica was unreachable")
	}
}
