package core

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// goldenRun is the set of counters frozen from the seed build (captured
// before any fault-tolerance code existed). The healthy path must keep
// producing these exact values: any drift means the off path is no longer
// zero-overhead.
//
// The rows were re-recorded once, at schema 10, when the LZ block codec
// replaced DEFLATE on the intermediate path: the cell compresses, so every
// MapReduce byte count and everything timed behind it moved. What no codec
// can touch did not: mapIn, mapOut, spills, redOut, and AGG's HDFS volumes.
// The DEFLATE-era values, unchanged from the seed through schema 9, were
//
//	TS:  wall 1098495440, hdfsR 34062336, hdfsW 34283520, mrR 33792000,
//	     mrW 41414656, shuffle 15228370, localMaps 49, remoteMaps 1
//	AGG: wall 449967576, mrR 696320, shuffle 164188
type goldenRun struct {
	wall                  time.Duration
	hdfsR, hdfsW          uint64
	mrR, mrW              uint64
	mapIn, mapOut         int64
	spills                int64
	shuffle, redOut       int64
	localMaps, remoteMaps int
	speculative           int64
}

var seedGolden = map[Workload]goldenRun{
	TS: {
		wall: 1204185295, hdfsR: 34185216, hdfsW: 34279424,
		mrR: 53628928, mrW: 53587968,
		mapIn: 335540, mapOut: 33554000, spills: 100,
		shuffle: 18985915, redOut: 33889540,
		localMaps: 50, remoteMaps: 0, speculative: 0,
	},
	AGG: {
		wall: 449987916, hdfsR: 17137664, hdfsW: 122880,
		mrR: 774144, mrW: 0,
		mapIn: 447993, mapOut: 4601883, spills: 46,
		shuffle: 292708, redOut: 14722,
		localMaps: 25, remoteMaps: 0, speculative: 0,
	},
}

// TestHealthyPathMatchesSeedGolden is the zero-overhead regression test of
// the fault work: with no fault plan configured, every counter and iostat
// total is byte-identical to the pre-fault-tolerance seed build (as
// re-recorded under the LZ codec, see goldenRun).
func TestHealthyPathMatchesSeedGolden(t *testing.T) {
	for wk, want := range seedGolden {
		rep, err := RunOne(wk, Factors{Slots: Slots1x8, MemoryGB: 16, Compress: true}, fastOpts)
		if err != nil {
			t.Fatalf("%s: %v", wk, err)
		}
		c := rep.Jobs[0].Counters
		got := goldenRun{
			wall: rep.Wall, hdfsR: rep.HDFS.TotalReadBytes, hdfsW: rep.HDFS.TotalWrittenBytes,
			mrR: rep.MR.TotalReadBytes, mrW: rep.MR.TotalWrittenBytes,
			mapIn: c.MapInputRecords, mapOut: c.MapOutputBytes, spills: c.Spills,
			shuffle: c.ShuffleBytes, redOut: c.ReduceOutputBytes,
			localMaps: c.LocalMaps, remoteMaps: c.RemoteMaps, speculative: c.SpeculativeAttempts,
		}
		if got != want {
			t.Errorf("%s drifted from the seed golden:\n got  %+v\n want %+v", wk, got, want)
		}
		if rep.Recovery != (hdfs.RecoveryStats{}) || rep.FaultsInjected != nil || rep.Groups != nil {
			t.Errorf("%s: healthy run carries fault-run state: %+v", wk, rep)
		}
	}
}

// A scrubber needs no fault plan, and its run reports what it read. The
// counters once lived in the recovery machinery only a plan switches on, so
// a scrub-only run read every replica and reported zero.
func TestScrubOnlyRunCountsItsScrubbing(t *testing.T) {
	opts := tinyOpts
	opts.ScrubRate = -1
	rep, err := RunOne(TS, SlotsRuns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	rs := rep.Recovery
	if rs.ScrubbedBlocks == 0 || rs.ScrubbedBytes == 0 {
		t.Errorf("scrub-only run counted no scrubbing: %+v", rs)
	}
	if rs.ChecksumErrors != 0 || rs.CorruptReplicas != 0 || rep.FaultsInjected != nil {
		t.Errorf("clean scrub-only run reports repair work: %+v", rs)
	}
}

// tsFaultFactors is the cell the DataNode-loss experiment runs.
var tsFaultFactors = Factors{Slots: Slots1x8, MemoryGB: 16, Compress: true}

// killPlan kills one whole node (TaskTracker + DataNode) mid-TeraSort. At
// fastOpts scale the healthy run lasts ~1.1 virtual seconds with maps
// finishing throughout the first ~0.8 s, so 300 ms is mid-map-phase: the
// victim holds completed map outputs (forcing re-execution) and block
// replicas (forcing re-replication).
const killPlan = "kill-node@300ms:node=slave-02"

type tsOutcome struct {
	rep      *RunReport
	sums     map[string][32]byte // output part file -> content hash
	inLocs   map[string][]int    // input file -> live replica count per block
	underRep int
}

func runTS(t *testing.T, planStr string) *tsOutcome {
	t.Helper()
	opts := fastOpts
	opts.Audit = true
	if planStr != "" {
		plan, err := faults.ParsePlan(planStr)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = plan
	}
	out := &tsOutcome{sums: map[string][32]byte{}, inLocs: map[string][]int{}}
	opts.Inspect = func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
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
		for _, path := range fs.List("/bench/TS/in/") {
			locs, err := fs.BlockLocations(path)
			if err != nil {
				t.Errorf("locations %s: %v", path, err)
				return
			}
			var counts []int
			for _, l := range locs {
				counts = append(counts, len(l))
			}
			out.inLocs[path] = counts
		}
		out.underRep = len(fs.AuditReplication().UnderReplicated)
	}
	rep, err := RunOne(TS, tsFaultFactors, opts)
	if err != nil {
		t.Fatalf("TS with plan %q: %v", planStr, err)
	}
	out.rep = rep
	return out
}

// TestDataNodeLossMidTeraSort is the tentpole acceptance scenario: one node
// dies mid-job, yet the job completes with byte-identical output, the lost
// map work is re-executed, and HDFS restores every input block to its full
// replication factor.
func TestDataNodeLossMidTeraSort(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, killPlan)

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged under faults: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	rec := faulty.rep.Recovery
	if rec.DeadDataNodes != 1 {
		t.Errorf("DeadDataNodes = %d, want 1", rec.DeadDataNodes)
	}
	if rec.ReReplicatedBlocks == 0 || rec.ReReplicatedBytes == 0 {
		t.Errorf("no re-replication happened: %+v", rec)
	}
	var reexec int64
	for _, j := range faulty.rep.Jobs {
		reexec += j.ReExecutedMaps
	}
	if reexec == 0 {
		t.Errorf("no map tasks were re-executed; kill fired too late or victim held no outputs")
	}
	if len(faulty.rep.FaultsInjected) != 1 {
		t.Errorf("FaultsInjected = %v, want exactly the kill event", faulty.rep.FaultsInjected)
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) still under-replicated after WaitRecovered", faulty.underRep)
	}
	for path, counts := range faulty.inLocs {
		for i, n := range counts {
			if n != 3 {
				t.Errorf("%s block %d has %d live replica(s), want 3", path, i, n)
			}
		}
	}
	// Victim/survivor iostat splits exist and the victim group flatlines
	// after the kill while survivors absorb the recovery writes.
	for _, name := range []string{GroupHDFSVictims, GroupMRVictims, GroupHDFSSurvivors, GroupMRSurvivors} {
		if faulty.rep.Groups[name] == nil {
			t.Errorf("missing fault iostat group %q", name)
		}
	}
	if hv, sv := faulty.rep.Groups[GroupHDFSVictims], faulty.rep.Groups[GroupHDFSSurvivors]; hv != nil && sv != nil {
		if sv.TotalWrittenBytes <= hv.TotalWrittenBytes {
			t.Errorf("survivors wrote %d <= victim's %d; recovery traffic missing",
				sv.TotalWrittenBytes, hv.TotalWrittenBytes)
		}
	}
}

// TestFaultRunDeterministic: two runs with the same fault plan and seed are
// event-for-event identical — same counters, same wall time, same recovery
// work.
func TestFaultRunDeterministic(t *testing.T) {
	a := runTS(t, killPlan)
	b := runTS(t, killPlan)
	if a.rep.Wall != b.rep.Wall {
		t.Errorf("wall diverged: %v vs %v", a.rep.Wall, b.rep.Wall)
	}
	if !reflect.DeepEqual(a.rep.Jobs[0].Counters, b.rep.Jobs[0].Counters) {
		t.Errorf("counters diverged:\n %+v\n %+v", a.rep.Jobs[0].Counters, b.rep.Jobs[0].Counters)
	}
	if a.rep.Recovery != b.rep.Recovery {
		t.Errorf("recovery stats diverged:\n %+v\n %+v", a.rep.Recovery, b.rep.Recovery)
	}
	if !reflect.DeepEqual(a.rep.FaultsInjected, b.rep.FaultsInjected) {
		t.Errorf("fault logs diverged: %v vs %v", a.rep.FaultsInjected, b.rep.FaultsInjected)
	}
	if !reflect.DeepEqual(a.sums, b.sums) {
		t.Errorf("outputs diverged between identical fault runs")
	}
}

// TestShuffleDropRetries: a transient fetch-drop window mid-shuffle makes
// reducers retry with backoff, and the job still completes correctly.
func TestShuffleDropRetries(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, "drop-shuffle@400ms:until=800ms,prob=0.5")
	if !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged under shuffle drops")
	}
	var retries int64
	for _, j := range faulty.rep.Jobs {
		retries += j.FetchRetries
	}
	if retries == 0 {
		t.Errorf("no fetch retries recorded under a 50%% drop window")
	}
}

// restartPlan bounces one node's DataNode mid-TeraSort: the crash at 300 ms
// is mid-map-phase, the 400 ms outage spans the (scaled) dead timeout, so
// detection fires, re-replication starts, and the node rejoins with a block
// report that must reconcile against partially repaired state.
const restartPlan = "restart-datanode@300ms:node=slave-02,down=400ms"

// TestRestartDataNodeMidTeraSort is the rejoin acceptance scenario: a
// DataNode bounce mid-job leaves output byte-identical to the healthy run,
// the rejoined node shows up in the recovering iostat group, and the
// post-run replication audit is clean.
func TestRestartDataNodeMidTeraSort(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, restartPlan)

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged under a DataNode restart: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	rec := faulty.rep.Recovery
	if rec.BlockReports == 0 {
		t.Error("rejoin sent no block report")
	}
	if rec.DeadDataNodes != 1 {
		t.Errorf("DeadDataNodes = %d, want 1 (the bounce must cross the dead timeout)", rec.DeadDataNodes)
	}
	for _, name := range []string{GroupHDFSRecovering, GroupMRRecovering, GroupHDFSSurvivors, GroupMRSurvivors} {
		if faulty.rep.Groups[name] == nil {
			t.Errorf("missing fault iostat group %q", name)
		}
	}
	if faulty.rep.Groups[GroupHDFSVictims] != nil {
		t.Error("restart-only plan registered a victims group")
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) under-replicated after the rejoin settled", faulty.underRep)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after restart: %v", faulty.rep.Audit.Violations())
	}
}

// TestRejoinDuringReReplication overlaps a permanent DataNode loss with a
// bounce of a second node, so the second node's block report is reconciled
// while re-replication streams from the first loss are still in flight.
// Under `go test -race` (the CI configuration) this doubles as the data-race
// test for block-report reconciliation against live recovery state.
func TestRejoinDuringReReplication(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, "kill-datanode@300ms:node=slave-01;restart-datanode@320ms:node=slave-02,down=120ms")

	if !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Error("output diverged when a rejoin raced re-replication")
	}
	rec := faulty.rep.Recovery
	if rec.BlockReports == 0 {
		t.Error("no block report from the bounced node")
	}
	if rec.ReReplicatedBlocks == 0 {
		t.Error("the permanent loss triggered no re-replication")
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) under-replicated after recovery", faulty.underRep)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean: %v", faulty.rep.Audit.Violations())
	}
}

// TestRestartNodeZombieTasks bounces a whole node (TaskTracker included)
// with an outage short enough that the machine is back up while task
// attempts started under its previous incarnation are still mid-flight.
// Regression: Alive() alone cannot see a crash-and-restart, so a "zombie"
// attempt used to survive the bounce and merge its crash-truncated spill
// files, panicking in decompression. The incarnation counter must kill the
// attempt instead, and the rerun must leave output byte-identical.
func TestRestartNodeZombieTasks(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, "restart-node@300ms:node=slave-02,down=50ms")

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged after a fast node bounce: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) under-replicated after the bounce settled", faulty.underRep)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after node bounce: %v", faulty.rep.Audit.Violations())
	}
}

// TestOverlappingNodeRestarts crashes the same node again before the first
// reboot has finished its journal-replay remounts. Regression: the first
// reboot's rejoin half used to complete anyway, resurrecting the node in
// the middle of its second outage and letting re-replication target a
// machine whose volumes were failed. The crash-generation guard must
// abandon the superseded reboot.
func TestOverlappingNodeRestarts(t *testing.T) {
	healthy := runTS(t, "")
	faulty := runTS(t, "restart-node@300ms:node=slave-02,down=120ms;restart-node@430ms:node=slave-02,down=150ms")

	if len(faulty.sums) == 0 || !reflect.DeepEqual(healthy.sums, faulty.sums) {
		t.Errorf("output diverged under overlapping restarts: healthy %d part(s), faulty %d part(s)",
			len(healthy.sums), len(faulty.sums))
	}
	if faulty.underRep != 0 {
		t.Errorf("%d block(s) under-replicated after overlapping restarts", faulty.underRep)
	}
	if faulty.rep.Audit == nil || !faulty.rep.Audit.Clean() {
		t.Errorf("audit not clean after overlapping restarts: %v", faulty.rep.Audit.Violations())
	}
}

// TestJobFailsCleanlyWhenClusterDies: when every slave dies no retry budget
// can save the job; it must fail with a typed JobError instead of hanging.
func TestJobFailsCleanlyWhenClusterDies(t *testing.T) {
	opts := fastOpts
	plan := "kill-node@200ms:node=slave-00;kill-node@210ms:node=slave-01;kill-node@220ms:node=slave-02;kill-node@230ms:node=slave-03;kill-node@240ms:node=slave-04"
	var err error
	opts.Faults, err = faults.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunOne(TS, tsFaultFactors, opts)
	if err == nil {
		t.Fatal("job survived the loss of every slave")
	}
	var je *mapred.JobError
	if !errors.As(err, &je) {
		t.Fatalf("error is not a mapred.JobError: %v", err)
	}
}
