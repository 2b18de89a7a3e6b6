package bench

import (
	"testing"
	"time"

	"iochar/internal/core"
	"iochar/internal/iostat"
	"iochar/internal/mapred"
	"iochar/internal/stats"
)

// fingerprints runs a small two-workload configuration that still exercises
// the full pipeline (sort-heavy TS, combiner-heavy AGG) at the given seed.
func fingerprints(t *testing.T, seed int64) map[core.Workload]string {
	t.Helper()
	out := map[core.Workload]string{}
	for _, w := range []core.Workload{core.TS, core.AGG} {
		rep, err := core.RunOne(w, core.SlotsRuns[0], core.Options{
			Scale: 262144, Slaves: 3, MapTaskTarget: 16, Seed: seed,
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", w, seed, err)
		}
		if rep.Wall <= 0 || rep.Events == 0 {
			t.Fatalf("%s seed %d: empty outcome (wall %v, events %d)", w, seed, rep.Wall, rep.Events)
		}
		out[w] = Fingerprint(rep)
	}
	return out
}

// TestRunDeterminism is the guarantee every cross-commit comparison leans
// on: two runs at the same seed and configuration produce the same
// fingerprint. A hot-path change is only a speedup if the fingerprint
// survives it.
func TestRunDeterminism(t *testing.T) {
	a, b := fingerprints(t, 7), fingerprints(t, 7)
	for w, fp := range a {
		if b[w] != fp {
			t.Errorf("%s: fingerprints differ across runs: %s vs %s", w, fp, b[w])
		}
	}
}

// TestRunSeedSensitivity guards the other direction: a different seed must
// produce a different fingerprint, or the fingerprint isn't actually
// covering the simulated outcome.
func TestRunSeedSensitivity(t *testing.T) {
	a, b := fingerprints(t, 7), fingerprints(t, 8)
	for w, fp := range a {
		if b[w] == fp {
			t.Errorf("%s: fingerprint identical across seeds 7 and 8", w)
		}
	}
}

// TestFingerprintCoversHashedFields moves one field of a hand-built report
// at a time: every field the fingerprint claims to hash must change it, and
// the sampled await series must not.
func TestFingerprintCoversHashedFields(t *testing.T) {
	build := func() *core.RunReport {
		group := func(base uint64) *iostat.Report {
			return &iostat.Report{
				AwaitMs:        &stats.Series{},
				TotalReadBytes: base, TotalWrittenBytes: base + 1,
				TotalReads: base + 2, TotalWrites: base + 3,
			}
		}
		job := func(base int64) *mapred.Result {
			return &mapred.Result{
				Counters: mapred.Counters{
					MapTasks: int(base), ReduceTasks: int(base) + 1, MapInputBytes: base + 2,
					ReduceOutputBytes: base + 3, Spills: base + 4, ShuffleBytes: base + 5,
				},
				Start: time.Duration(base), End: time.Duration(2*base + 6),
			}
		}
		return &core.RunReport{
			Wall: time.Second, Events: 1000,
			HDFS: group(10), MR: group(20),
			Jobs: []*mapred.Result{job(100), job(200)},
		}
	}
	base := Fingerprint(build())
	if again := Fingerprint(build()); again != base {
		t.Fatalf("fingerprint of identical reports differs: %s vs %s", base, again)
	}

	hashed := map[string]func(*core.RunReport){
		"Wall":                   func(r *core.RunReport) { r.Wall++ },
		"Events":                 func(r *core.RunReport) { r.Events++ },
		"HDFS.TotalReadBytes":    func(r *core.RunReport) { r.HDFS.TotalReadBytes++ },
		"HDFS.TotalWrittenBytes": func(r *core.RunReport) { r.HDFS.TotalWrittenBytes++ },
		"HDFS.TotalReads":        func(r *core.RunReport) { r.HDFS.TotalReads++ },
		"HDFS.TotalWrites":       func(r *core.RunReport) { r.HDFS.TotalWrites++ },
		"MR.TotalReadBytes":      func(r *core.RunReport) { r.MR.TotalReadBytes++ },
		"MR.TotalWrittenBytes":   func(r *core.RunReport) { r.MR.TotalWrittenBytes++ },
		"MR.TotalReads":          func(r *core.RunReport) { r.MR.TotalReads++ },
		"MR.TotalWrites":         func(r *core.RunReport) { r.MR.TotalWrites++ },
		"job count":              func(r *core.RunReport) { r.Jobs = r.Jobs[:1] },
		"job.MapTasks":           func(r *core.RunReport) { r.Jobs[1].MapTasks++ },
		"job.ReduceTasks":        func(r *core.RunReport) { r.Jobs[1].ReduceTasks++ },
		"job.MapInputBytes":      func(r *core.RunReport) { r.Jobs[1].MapInputBytes++ },
		"job.ReduceOutputBytes":  func(r *core.RunReport) { r.Jobs[1].ReduceOutputBytes++ },
		"job.Spills":             func(r *core.RunReport) { r.Jobs[1].Spills++ },
		"job.ShuffleBytes":       func(r *core.RunReport) { r.Jobs[1].ShuffleBytes++ },
		"job.Runtime":            func(r *core.RunReport) { r.Jobs[1].End++ },
	}
	for name, mutate := range hashed {
		r := build()
		mutate(r)
		if Fingerprint(r) == base {
			t.Errorf("changing %s left the fingerprint at %s", name, base)
		}
	}

	r := build()
	r.HDFS.AwaitMs.Add(time.Second, 12.5)
	r.MR.AwaitMs.Add(time.Second, 3.25)
	if got := Fingerprint(r); got != base {
		t.Errorf("await samples moved the fingerprint: %s vs %s", got, base)
	}
}
