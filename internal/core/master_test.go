package core

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/sim"
)

// runTSMasters is runTS with master recovery forced on, plus an end-of-run
// replay-equivalence check: the namespace a restarting NameNode would
// rebuild must equal the live one after every fault has settled.
func runTSMasters(t *testing.T, planStr string) *tsOutcome {
	t.Helper()
	opts := fastOpts
	opts.Audit = true
	opts.MasterRecovery = true
	if planStr != "" {
		plan, err := faults.ParsePlan(planStr)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = plan
	}
	out := &tsOutcome{sums: map[string][32]byte{}, inLocs: map[string][]int{}}
	base := opts.Inspect
	opts.Inspect = func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
		if base != nil {
			base(p, fs, cl)
		}
		if !reflect.DeepEqual(fs.LiveNamespace(), fs.Master().Replayed()) {
			t.Error("replayed NameNode state diverges from the live namespace at end of run")
		}
		for _, path := range fs.List("/bench/TS/out/") {
			rd, err := fs.Open(path, cl.Master.Name)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			data, err := rd.ReadAt(p, 0, rd.Size())
			if err != nil {
				t.Errorf("read %s: %v", path, err)
				return
			}
			out.sums[path] = sha256.Sum256(data)
		}
		out.underRep = len(fs.AuditReplication().UnderReplicated)
	}
	rep, err := RunOne(TS, tsFaultFactors, opts)
	if err != nil {
		t.Fatalf("TS with master recovery and plan %q: %v", planStr, err)
	}
	out.rep = rep
	return out
}

// TestMasterRecoveryHealthyRun: master recovery on with no faults leaves the
// workload outcome identical to the plain healthy run while the metadata
// stream — edit journal, checkpoints — lands as real bytes on the master's
// own disks, visible in the masters iostat group.
func TestMasterRecoveryHealthyRun(t *testing.T) {
	healthy := runTS(t, "")
	mastered := runTSMasters(t, "")

	if len(mastered.sums) == 0 || !reflect.DeepEqual(healthy.sums, mastered.sums) {
		t.Errorf("output changed when master recovery was enabled: healthy %d part(s), mastered %d part(s)",
			len(healthy.sums), len(mastered.sums))
	}
	nn := mastered.rep.NameNode
	if nn.JournalRecords == 0 || nn.JournalBytes == 0 {
		t.Errorf("NameNode journaled nothing: %+v", nn)
	}
	if nn.Stalls != 0 {
		t.Errorf("clients stalled %d time(s) on a never-crashed master", nn.Stalls)
	}
	jt := mastered.rep.JobTracker
	if jt.JournalRecords == 0 {
		t.Errorf("JobTracker journaled nothing: %+v", jt)
	}
	if meta := mastered.rep.Groups[GroupMasters]; meta == nil || meta.TotalWrittenBytes == 0 {
		t.Error("masters iostat group missing or empty")
	}
	if mastered.rep.Audit == nil || !mastered.rep.Audit.Clean() {
		t.Errorf("audit not clean under master recovery: %v", mastered.rep.Audit.Violations())
	}
}

// nnRestartPlan bounces the NameNode mid-TeraSort. 300 ms is mid-map-phase
// at fastOpts scale, and the 100 ms outage comfortably spans the scaled
// DataNode dead timeout, so the restart must also prove that the outage
// itself does not read as a cluster-wide failure.
const nnRestartPlan = "restart-namenode@300ms:down=100ms"

// TestNameNodeRestartMidTeraSort: the NameNode dies and returns mid-job;
// clients stall and retry instead of failing, the restarted master replays
// its journal and holds safe mode until block reports confirm replicas, and
// the job completes with byte-identical output.
func TestNameNodeRestartMidTeraSort(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTSMasters(t, nnRestartPlan)

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged across a NameNode bounce: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	nn := faulty.rep.NameNode
	if nn.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", nn.Restarts)
	}
	if nn.Stalls == 0 || nn.StallTime == 0 {
		t.Errorf("no client stalled on the outage: %+v", nn)
	}
	if nn.SafeModeWait == 0 {
		t.Errorf("restart skipped safe mode: %+v", nn)
	}
	if nn.ReplayBytes == 0 {
		t.Errorf("restart read no journal bytes back: %+v", nn)
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) under-replicated after the bounce settled", faulty.underRep)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after a NameNode bounce: %v", faulty.rep.Audit.Violations())
	}
}

// TestJobTrackerRestartMidTeraSort: the JobTracker dies and returns mid-job;
// task grants stall on backoff, the restarted scheduler replays job state
// and reconciles against the cluster, and output is byte-identical.
func TestJobTrackerRestartMidTeraSort(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTSMasters(t, "restart-jobtracker@300ms:down=100ms")

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged across a JobTracker bounce: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	jt := faulty.rep.JobTracker
	if jt.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", jt.Restarts)
	}
	if jt.Stalls == 0 || jt.StallTime == 0 {
		t.Errorf("no tracker stalled on the outage: %+v", jt)
	}
	if jt.ReplayBytes == 0 {
		t.Errorf("restart read no journal bytes back: %+v", jt)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after a JobTracker bounce: %v", faulty.rep.Audit.Violations())
	}
}

// TestDoubleMasterRestart bounces both masters with overlapping-in-time (but
// per-victim disjoint) outages — the double-master scenario the chaos
// regression schedule PR-double-master pins.
func TestDoubleMasterRestart(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTSMasters(t, "restart-namenode@300ms:down=80ms;restart-jobtracker@330ms:down=80ms")

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged across a double master bounce: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	if faulty.rep.NameNode.Restarts != 1 || faulty.rep.JobTracker.Restarts != 1 {
		t.Errorf("restarts: NN %d, JT %d, want 1 and 1",
			faulty.rep.NameNode.Restarts, faulty.rep.JobTracker.Restarts)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after a double master bounce: %v", faulty.rep.Audit.Violations())
	}
}

// TestMasterFaultPlanImpliesRecovery: a plan carrying master-restart events
// switches the machinery on even when the option is off — the injector
// needs killable masters.
func TestMasterFaultPlanImpliesRecovery(t *testing.T) {
	opts := fastOpts
	plan, err := faults.ParsePlan(nnRestartPlan)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	rep, err := RunOne(TS, tsFaultFactors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NameNode.Restarts != 1 {
		t.Errorf("implied master recovery did not run: %+v", rep.NameNode)
	}
	if rep.Groups[GroupMasters] == nil {
		t.Error("masters iostat group missing on an implied-recovery run")
	}
}

// TestMasterRecoveryDeterministic: identical master-fault runs are
// event-for-event identical.
func TestMasterRecoveryDeterministic(t *testing.T) {
	a := runTSMasters(t, nnRestartPlan)
	b := runTSMasters(t, nnRestartPlan)
	if a.rep.Wall != b.rep.Wall {
		t.Errorf("wall diverged: %v vs %v", a.rep.Wall, b.rep.Wall)
	}
	if a.rep.NameNode != b.rep.NameNode {
		t.Errorf("NameNode stats diverged:\n %+v\n %+v", a.rep.NameNode, b.rep.NameNode)
	}
	if a.rep.JobTracker != b.rep.JobTracker {
		t.Errorf("JobTracker stats diverged:\n %+v\n %+v", a.rep.JobTracker, b.rep.JobTracker)
	}
	if !reflect.DeepEqual(a.sums, b.sums) {
		t.Error("outputs diverged between identical master-fault runs")
	}
}
