package hdfs

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"iochar/internal/cluster"
	"iochar/internal/journal"
	"iochar/internal/sim"
)

// masterRig is rig() plus a provisioned metadata volume and the NameNode
// master layer.
func masterRig(t *testing.T, nSlaves int, cfg MasterConfig) (*sim.Env, *cluster.Cluster, *FS) {
	t.Helper()
	env, c, fs := rig(nSlaves)
	if err := c.ProvisionMasterMeta(1); err != nil {
		t.Fatal(err)
	}
	fs.EnableMaster(c.Master.MetaVols[0], cfg)
	return env, c, fs
}

// TestMasterReplayEquivalence pins the durability invariant at every
// namespace transition: the state a restarting NameNode would rebuild from
// checkpoint+journal equals the live in-memory namespace — including with a
// file mid-write, whose allocated blocks must already be journaled.
func TestMasterReplayEquivalence(t *testing.T) {
	env, c, fs := masterRig(t, 4, MasterConfig{})
	check := func(stage string) {
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Errorf("%s: replayed namespace diverges from live state", stage)
		}
	}
	env.Go("client", func(p *sim.Proc) {
		defer fs.Master().Stop()
		w := fs.CreateWith("/a", c.Slaves[0].Name, 0)
		w.Write(p, pattern(150_000))
		w.Close(p)
		check("after close")
		w2 := fs.CreateWith("/b", c.Slaves[1].Name, 0)
		w2.Write(p, pattern(60_000))
		check("mid-write")
		w2.Close(p)
		check("after second close")
		fs.Delete("/a")
		check("after delete")
	})
	env.Run(0)
	if fs.MasterStats().JournalRecords == 0 {
		t.Error("no edit records journaled")
	}
}

// TestMasterCheckpointRollsJournal: checkpoints write real fsimage bytes,
// and replay from the new image+journal still reproduces the live namespace
// (that a checkpoint empties the journal is internal/journal's own test).
func TestMasterCheckpointRollsJournal(t *testing.T) {
	env, c, fs := masterRig(t, 4, MasterConfig{Journal: journal.Config{CheckpointInterval: 50 * time.Millisecond}})
	env.Go("client", func(p *sim.Proc) {
		defer fs.Master().Stop()
		w := fs.CreateWith("/ck", c.Slaves[0].Name, 0)
		w.Write(p, pattern(100_000))
		w.Close(p)
		p.Sleep(120 * time.Millisecond) // at least two checkpoint ticks
		st := fs.MasterStats()
		if st.Checkpoints == 0 || st.CheckpointBytes == 0 {
			t.Errorf("no checkpoint ran in 120ms at a 50ms interval: %+v", st)
		}
		w2 := fs.CreateWith("/post", c.Slaves[1].Name, 0)
		w2.Write(p, pattern(40_000))
		w2.Close(p)
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Error("image+journal replay diverges after a checkpoint")
		}
	})
	env.Run(0)
}

// TestNameNodeKillReplayDiff is the kill-replay-diff scenario: crash the
// NameNode, restart it, and the post-restart state must be identical to the
// pre-crash snapshot — nothing lost, nothing invented. A writer caught by
// the outage stalls on backoff instead of failing and completes only after
// the restart.
func TestNameNodeKillReplayDiff(t *testing.T) {
	env, c, fs := masterRig(t, 4, MasterConfig{})
	var preCrash NamespaceSnapshot
	var restartAt, closedAt time.Duration
	env.Go("writer", func(p *sim.Proc) {
		defer fs.Master().Stop()
		w := fs.CreateWith("/w", c.Slaves[0].Name, 0)
		w.Write(p, pattern(20_000))
		p.Sleep(5 * time.Millisecond) // the crash lands here, mid-file
		w.Write(p, pattern(20_000))   // block allocation stalls on the outage
		w.Close(p)
		closedAt = p.Now()
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Error("replayed namespace diverges after the bounce")
		}
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		preCrash = fs.LiveNamespace()
		fs.Master().Crash()
		if !fs.Master().Down() {
			t.Error("Crash left the NameNode serving")
		}
		p.Sleep(20 * time.Millisecond)
		fs.RestartNameNode(p)
		restartAt = p.Now()
		if diff := fs.LiveNamespace(); !reflect.DeepEqual(preCrash, diff) {
			t.Errorf("kill-replay diff: state after restart differs from pre-crash snapshot:\n pre  %+v\n post %+v", preCrash, diff)
		}
	})
	env.Run(0)
	st := fs.MasterStats()
	if st.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", st.Restarts)
	}
	if st.Stalls == 0 || st.StallTime == 0 {
		t.Errorf("the writer never stalled on the outage: %+v", st)
	}
	if closedAt <= restartAt {
		t.Errorf("writer closed at %v, before the restart at %v", closedAt, restartAt)
	}
}

// TestLeaseExpirySealsAbandonedFile: a writer that stops renewing (without
// its node dying) is hard-expired on the checkpoint tick; the file seals at
// its flushed length and the recovery is journaled.
func TestLeaseExpirySealsAbandonedFile(t *testing.T) {
	env, c, fs := masterRig(t, 4, MasterConfig{
		Journal:      journal.Config{CheckpointInterval: 10 * time.Millisecond},
		LeaseTimeout: 30 * time.Millisecond,
	})
	env.Go("client", func(p *sim.Proc) {
		defer fs.Master().Stop()
		w := fs.CreateWith("/abandoned", c.Slaves[0].Name, 0)
		w.Write(p, pattern(40_000)) // flushes blocks; never closed
		p.Sleep(100 * time.Millisecond)
		st := fs.MasterStats()
		if st.LeaseRecoveries != 1 {
			t.Errorf("LeaseRecoveries = %d, want 1", st.LeaseRecoveries)
		}
		if fs.files["/abandoned"].open {
			t.Error("file still open after its lease expired")
		}
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Error("replayed namespace diverges after lease recovery")
		}
	})
	env.Run(0)
}

// TestRestartRecoversDeadWritersLease: a writer whose node died during the
// NameNode outage can never renew; the restarting master must seal its file
// rather than leave it open forever.
func TestRestartRecoversDeadWritersLease(t *testing.T) {
	env, c, fs := masterRig(t, 5, MasterConfig{})
	fs.EnableRecovery(RecoveryConfig{HeartbeatInterval: time.Millisecond, DeadTimeout: 5 * time.Millisecond})
	env.Go("driver", func(p *sim.Proc) {
		defer func() {
			fs.Master().Stop()
			fs.StopRecovery()
		}()
		w := fs.CreateWith("/dead-writer", c.Slaves[2].Name, 0)
		w.Write(p, pattern(40_000))
		fs.Master().Crash()
		fs.CrashDataNode(c.Slaves[2].Name)
		p.Sleep(10 * time.Millisecond)
		fs.RestartNameNode(p)
		fs.WaitMasterReady(p)
		if fs.files["/dead-writer"].open {
			t.Error("dead writer's file not sealed at restart")
		}
		if fs.MasterStats().LeaseRecoveries == 0 {
			t.Error("no lease recovery recorded for the dead writer")
		}
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Error("replayed namespace diverges after dead-writer lease recovery")
		}
	})
	env.Run(0)
}

// TestSafeModeExitThreshold pins the safe-mode exit rule: safe mode holds
// until block reports re-confirm int(safeModeFrac × expected) pre-crash
// replicas or every live DataNode has reported. Reads are served
// throughout; mutations are not.
func TestSafeModeExitThreshold(t *testing.T) {
	env, c, fs := masterRig(t, 4, MasterConfig{})
	// Long heartbeat interval so the test drives block reports by hand.
	fs.EnableRecovery(RecoveryConfig{HeartbeatInterval: 10 * time.Second, DeadTimeout: 100 * time.Second})
	env.Go("driver", func(p *sim.Proc) {
		defer func() {
			fs.Master().Stop()
			fs.StopRecovery()
		}()
		w := fs.CreateWith("/sm", c.Slaves[0].Name, 0)
		w.Write(p, pattern(200_000))
		w.Close(p)
		fs.Master().Crash()
		p.Sleep(time.Millisecond)
		fs.RestartNameNode(p)
		ms := fs.master
		if !ms.safeMode {
			t.Fatal("restart with live replicas did not enter safe mode")
		}
		if fs.MasterServing() {
			t.Error("MasterServing true while in safe mode")
		}
		r, err := fs.Open("/sm", c.Slaves[1].Name)
		if err != nil {
			t.Fatalf("namespace read failed in safe mode: %v", err)
		}
		if _, err := r.ReadAt(p, 0, 1000); err != nil {
			t.Errorf("data read failed in safe mode: %v", err)
		}
		p.Sleep(2 * time.Millisecond) // accrue measurable safe-mode wait
		need := int(safeModeFrac * float64(ms.expectedReplicas))
		for i, dn := range fs.datanodes {
			fs.masterBlockReport(dn)
			want := ms.reportedReplicas < need && i < len(fs.datanodes)-1
			if ms.safeMode != want {
				t.Errorf("after %d of %d block reports (%d of %d replicas, threshold %d): safe mode %v, want %v",
					i+1, len(fs.datanodes), ms.reportedReplicas, ms.expectedReplicas, need, ms.safeMode, want)
			}
			if i == 0 && !ms.safeMode {
				t.Error("safe mode exited on the first block report: the threshold was never exercised")
			}
		}
		if fs.MasterStats().SafeModeWait == 0 {
			t.Error("SafeModeWait not accounted")
		}
	})
	env.Run(0)
}

// fieldOK reports whether s can be one space-separated field of a journal
// line: a path the namespace could hold, never empty and without
// whitespace.
func fieldOK(s string) bool {
	return s != "" && utf8.ValidString(s) && !strings.ContainsFunc(s, unicode.IsSpace)
}

// FuzzEditCodec: an edit record and an fsimage built from fuzzed fields
// parse back to themselves, and arbitrary bytes given to either parser
// return an error without panicking — anything accepted renders back to
// exactly those bytes.
func FuzzEditCodec(f *testing.F) {
	f.Add(uint8(opAddBlock), "/bench/TS/in/part-00000", int64(1073741825), int64(65536), 3, true,
		[]byte("F /a 65536 false\nB 1 65536 3\nF /b 0 true\n"))
	f.Add(uint8(opCreate), "/x", int64(-1), int64(0), -2, false, []byte("OP_ADD_BLOCK /a 1 2 3"))
	f.Add(uint8(opDelete), "%d", int64(0), int64(1), 0, false, []byte("B 1 2 3\nF /a 0 false\n"))
	f.Fuzz(func(t *testing.T, op uint8, path string, block, size int64, repl int, open bool, raw []byte) {
		if fieldOK(path) {
			r := editRec{op: editOp(int(op) % len(editOpNames)), path: path, block: block, size: size, repl: repl}
			if got, err := parseEdit(strings.TrimSuffix(renderEdit(r), "\n")); err != nil || got != r {
				t.Errorf("record %+v came back as %+v, %v", r, got, err)
			}
			snap := NamespaceSnapshot{
				path:       {Size: size, Open: open, Blocks: []BlockRecord{{block, size, repl}, {block + 1, 0, 1}}},
				path + "/": {Open: !open},
			}
			if got, err := parseImage(renderImage(snap)); err != nil || !reflect.DeepEqual(got, snap) {
				t.Errorf("fsimage %q came back as %v, %v", renderImage(snap), got, err)
			}
		}
		if r, err := parseEdit(string(raw)); err == nil && renderEdit(r) != string(raw)+"\n" {
			t.Errorf("parseEdit accepted %q as %+v, which renders as %q", raw, r, renderEdit(r))
		}
		if snap, err := parseImage(raw); err == nil && string(renderImage(snap)) != string(raw) {
			t.Errorf("parseImage accepted %q, which renders as %q", raw, renderImage(snap))
		}
	})
}
