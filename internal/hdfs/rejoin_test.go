package hdfs

import (
	"bytes"
	"testing"
	"time"

	"iochar/internal/sim"
)

// TestRejoinBeforeDetectionReAdopts: a DataNode that restarts inside the
// dead timeout rejoins with its replicas intact — the block report
// re-credits every copy and no re-replication happens.
func TestRejoinBeforeDetectionReAdopts(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableRecovery(fastRecovery())
	victim := c.Slaves[0].Name
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, pattern(150_000))
		w.Close(p)
		fs.CrashDataNode(victim)
		p.Sleep(100 * time.Millisecond) // well inside the 1 s dead timeout
		fs.RejoinDataNode(p, victim)
		fs.WaitRecovered(p)
		fs.StopRecovery()
	})
	env.Run(0)

	st := fs.RecoveryStats()
	if st.BlockReports != 1 {
		t.Errorf("BlockReports = %d, want 1", st.BlockReports)
	}
	if st.ReAdoptedReplicas != 0 {
		// The dead timeout never fired, so the replicas were never struck:
		// the report confirms them in place rather than re-adopting.
		t.Errorf("%d replicas re-adopted though none were ever struck", st.ReAdoptedReplicas)
	}
	if st.StaleReplicasPurged != 0 {
		t.Errorf("%d replicas purged on a clean fast rejoin", st.StaleReplicasPurged)
	}
	if st.ReReplicatedBlocks != 0 {
		t.Errorf("%d blocks re-replicated though the node came straight back", st.ReReplicatedBlocks)
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("audit after fast rejoin: %s", a.String())
	}
}

// TestRejoinAfterReReplicationPurgesExcess: a DataNode that stays down past
// the dead timeout has its blocks re-replicated elsewhere; when it finally
// rejoins, the block report must purge the now-excess copies instead of
// leaving the namespace over-replicated or orphaned.
func TestRejoinAfterReReplicationPurgesExcess(t *testing.T) {
	env, c, fs := rig(5)
	fs.EnableRecovery(fastRecovery())
	victim := c.Slaves[0].Name
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, pattern(200_000))
		w.Close(p)
		fs.CrashDataNode(victim)
		p.Sleep(3 * time.Second) // past the 1 s dead timeout
		fs.WaitRecovered(p)      // re-replication onto survivors completes
		fs.RejoinDataNode(p, victim)
		fs.WaitRecovered(p)
		fs.StopRecovery()
	})
	env.Run(0)

	st := fs.RecoveryStats()
	if st.ReReplicatedBlocks == 0 {
		t.Fatal("dead timeout never triggered re-replication; the scenario is vacuous")
	}
	if st.StaleReplicasPurged == 0 {
		t.Error("rejoin purged no excess replicas")
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("audit after late rejoin: %s", a.String())
	}
	// The purged files must really be gone from the node's volumes (no
	// orphan files waiting to confuse a future report).
	dn := fs.byNode[victim]
	for _, vol := range c.Slaves[0].HDFSVols {
		for _, name := range vol.List() {
			id, ok := parseBlockFileName(name)
			if !ok {
				continue
			}
			if _, credited := dn.blocks[id]; !credited {
				t.Errorf("uncredited replica file %s survived on %s", name, victim)
			}
		}
	}
}

// TestRejoinCancelsQueuedRepairs: when the node comes back while its blocks
// sit in the repair queue (detection fired, copies not yet made), the block
// report restores the replicas and the queued repairs drain as no-ops.
func TestRejoinCancelsQueuedRepairs(t *testing.T) {
	env, c, fs := rig(4)
	// Rejoin right after detection, before the workers start copying:
	// heartbeat 100 ms, dead timeout 1 s, rejoin at 1.2 s.
	fs.EnableRecovery(fastRecovery())
	victim := c.Slaves[0].Name
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", c.Slaves[0].Name, 0)
		w.Write(p, pattern(150_000))
		w.Close(p)
		fs.CrashDataNode(victim)
		p.Sleep(1200 * time.Millisecond) // just past detection
		fs.RejoinDataNode(p, victim)
		fs.WaitRecovered(p)
		fs.StopRecovery()
	})
	env.Run(0)

	st := fs.RecoveryStats()
	if st.DeadDataNodes != 1 {
		t.Fatalf("DeadDataNodes = %d, want 1", st.DeadDataNodes)
	}
	if st.CancelledRepairs == 0 && st.ReReplicatedBlocks == 0 {
		t.Error("neither cancelled nor executed repairs after detection — queue never drained?")
	}
	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("audit after rejoin: %s", a.String())
	}
}

// TestRejoinPurgesCrashTruncatedReplicas: a whole-machine crash loses dirty
// page cache, truncating unsynced replica files. The rejoin block report
// must refuse those partial files (size mismatch) so reads never see them.
func TestRejoinPurgesCrashTruncatedReplicas(t *testing.T) {
	env, c, fs := rig(4)
	fs.EnableIntegrity()
	fs.EnableRecovery(fastRecovery())
	victim := c.Slaves[0]
	want := pattern(180_000)
	env.Go("client", func(p *sim.Proc) {
		w := fs.CreateWith("/f", victim.Name, 0)
		w.Write(p, want)
		w.Close(p)
		// Crash the machine's volumes without syncing: dirty pages drop and
		// files truncate to their flushed prefix.
		for _, vol := range victim.HDFSVols {
			vol.Crash()
		}
		fs.CrashDataNode(victim.Name)
		p.Sleep(50 * time.Millisecond)
		for _, vol := range victim.HDFSVols {
			vol.Remount(p)
		}
		fs.RejoinDataNode(p, victim.Name)
		fs.WaitRecovered(p)

		// Every byte must still be readable from the surviving replicas.
		r, err := fs.Open("/f", victim.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAt(p, 0, int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read served wrong bytes after crash-restart")
		}
		fs.StopRecovery()
	})
	env.Run(0)

	if a := fs.AuditReplication(); !a.OK() {
		t.Errorf("audit after crash-restart rejoin: %s", a.String())
	}
	if bad := fs.AuditReplication().BadChunks; len(bad) != 0 {
		t.Errorf("bad chunks after crash-restart rejoin: %v", bad)
	}
}

func TestParseBlockFileName(t *testing.T) {
	cases := []struct {
		name string
		id   int64
		ok   bool
	}{
		{"blk_0", 0, true},
		{"blk_42", 42, true},
		{"blk_", 0, false},
		{"blk_x", 0, false},
		{"blk_07", 0, false}, // not the canonical rendering of 7
		{"spill_3", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		id, ok := parseBlockFileName(c.name)
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("parseBlockFileName(%q) = %d,%v want %d,%v", c.name, id, ok, c.id, c.ok)
		}
	}
}
