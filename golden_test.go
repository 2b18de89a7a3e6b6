package iochar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"iochar/internal/bench"
	"iochar/internal/core"
	"iochar/internal/faults"
)

// The golden files pin the simulated outcome of the HDD-only path: the full
// -all byte stream and the per-workload bench fingerprints at goldenOpts.
// Any change to device timing, scheduling, merging, or accounting that
// alters simulated results on the default (untiered) configuration fails
// these tests. golden_master.txt pins the same for runs with the journaled
// master layers on, healthy and across master restarts. Regenerate
// deliberately with:
//
//	IOCHAR_UPDATE_GOLDEN=1 go test -run TestGolden ./...
const (
	goldenAllFile          = "testdata/golden_all.txt"
	goldenFingerprintsFile = "testdata/golden_fingerprints.txt"
	goldenMasterFile       = "testdata/golden_master.txt"
)

// TestGoldenAllOutput pins the -all output byte stream at goldenOpts. With
// tiering disabled nothing in the device-model extraction may shift a single
// byte of any figure or table.
func TestGoldenAllOutput(t *testing.T) {
	got := renderAll(t, core.NewSuite(goldenOpts))
	want := goldenOrUpdate(t, goldenAllFile, got)
	if !bytes.Equal(got, want) {
		t.Errorf("-all output diverged from golden (%d bytes, want %d)\n%s",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenBenchFingerprints pins the bench outcome fingerprint of every
// workload on the untiered path. The fingerprint hashes virtual wall time,
// the kernel event count, HDFS/MR byte and request totals, and the job
// counters — so even an event-count-neutral timing change is caught. The
// rows are written per configuration: goldenOpts first, then the seed-era
// anchor — the configuration results/BENCH_quick-hdd.json was measured at,
// whose five fingerprints held from the seed until schema 10 swapped the
// intermediate codec (every row here compresses, so all ten moved once).
func TestGoldenBenchFingerprints(t *testing.T) {
	var buf bytes.Buffer
	for _, opts := range []core.Options{
		{Scale: goldenOpts.Scale, Slaves: goldenOpts.Slaves, MapTaskTarget: goldenOpts.MapTaskTarget},
		{Scale: 65536, Slaves: 4, MapTaskTarget: 24},
	} {
		for _, w := range slices.Concat(core.WorkloadOrder, []core.Workload{core.Join}) {
			rep, err := core.RunOne(w, core.SlotsRuns[0], opts)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", w, bench.Fingerprint(rep))
		}
	}
	got := buf.Bytes()
	want := goldenOrUpdate(t, goldenFingerprintsFile, got)
	if !bytes.Equal(got, want) {
		t.Errorf("bench fingerprints diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestGoldenMasterFingerprints pins the master-recovery-on path, which the
// two goldens above never take: a healthy journaled run, the two checked-in
// chaos schedules that bounce a master (TS-namenode-bounce, PR-double-master)
// and a JobTracker bounce that lands mid-job, so both stall loops run.
// The bench fingerprint hashes wall time and event count but not the master
// counters, so those are printed beside it — field by field rather than with
// %+v, so the line does not depend on how the stats structs are composed.
func TestGoldenMasterFingerprints(t *testing.T) {
	cases := []struct {
		w        core.Workload
		plan     string
		planSeed int64
	}{
		{core.TS, "", 0},
		{core.TS, "restart-namenode@40ms:down=25ms", 101},
		{core.TS, "restart-jobtracker@40ms:down=25ms", 102},
		{core.PR, "restart-namenode@300ms:down=60ms;restart-jobtracker@330ms:down=60ms", 103},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		opts := core.Options{Scale: 262144, Slaves: 5, MapTaskTarget: 8}
		if c.plan == "" {
			opts = opts.With(core.WithMasterRecovery())
		} else {
			plan, err := faults.ParsePlan(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			plan.Seed = c.planSeed
			opts.Faults = plan
		}
		rep, err := core.RunOne(c.w, core.SlotsRuns[0], opts)
		if err != nil {
			t.Fatalf("%s [%s]: %v", c.w, c.plan, err)
		}
		nn, jt := rep.NameNode, rep.JobTracker
		fmt.Fprintf(&buf, "%s [%s] %s\n", c.w, c.plan, bench.Fingerprint(rep))
		fmt.Fprintf(&buf, "  namenode: records=%d bytes=%d batches=%d checkpoints=%d checkpointBytes=%d restarts=%d replayRecords=%d replayBytes=%d stalls=%d stallTime=%v safeModeWait=%v leaseGrants=%d leaseReleases=%d leaseRecoveries=%d\n",
			nn.JournalRecords, nn.JournalBytes, nn.JournalBatches, nn.Checkpoints, nn.CheckpointBytes,
			nn.Restarts, nn.ReplayRecords, nn.ReplayBytes, nn.Stalls, nn.StallTime,
			nn.SafeModeWait, nn.LeaseGrants, nn.LeaseReleases, nn.LeaseRecoveries)
		fmt.Fprintf(&buf, "  jobtracker: records=%d bytes=%d batches=%d checkpoints=%d checkpointBytes=%d restarts=%d replayRecords=%d replayBytes=%d stalls=%d stallTime=%v missedEvents=%d zombieOutputs=%d\n",
			jt.JournalRecords, jt.JournalBytes, jt.JournalBatches, jt.Checkpoints, jt.CheckpointBytes,
			jt.Restarts, jt.ReplayRecords, jt.ReplayBytes, jt.Stalls, jt.StallTime,
			jt.MissedEvents, jt.ZombieOutputs)
	}
	got := buf.Bytes()
	want := goldenOrUpdate(t, goldenMasterFile, got)
	if !bytes.Equal(got, want) {
		t.Errorf("master-recovery runs diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// goldenOrUpdate returns the checked-in golden at path — or, when
// IOCHAR_UPDATE_GOLDEN is set, rewrites it with got and returns got, so the
// caller's comparison passes.
func goldenOrUpdate(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") == "" {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
		}
		return want
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(got))
	return got
}
