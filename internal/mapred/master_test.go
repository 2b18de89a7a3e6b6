package mapred

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"iochar/internal/journal"
	"iochar/internal/sim"
)

// masterRigMR is newRig plus a provisioned metadata volume and the
// JobTracker master layer.
func masterRigMR(t *testing.T, cfg journal.Config) *testRig {
	t.Helper()
	r := newRig(t, nil)
	if err := r.cl.ProvisionMasterMeta(1); err != nil {
		t.Fatal(err)
	}
	r.rt.EnableMaster(r.cl.Master.MetaVols[0], cfg)
	return r
}

// runJobStopMaster runs a job and shuts the master daemons down when it
// completes, so env.Run can drain.
func (r *testRig) runJobStopMaster(t *testing.T, job *Job) *Result {
	t.Helper()
	var res *Result
	var err error
	r.env.Go("driver", func(p *sim.Proc) {
		res, err = r.rt.Run(p, job)
		r.rt.Master().Stop()
	})
	r.env.Run(0)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return res
}

// TestJobTrackerReplayEquivalence samples the durability invariant while a
// job is in flight: at every sampled instant the job state a restarting
// JobTracker would rebuild from image+journal equals the scheduler's live
// state. A short checkpoint interval forces the image to roll mid-job.
func TestJobTrackerReplayEquivalence(t *testing.T) {
	r := masterRigMR(t, journal.Config{CheckpointInterval: 2 * time.Millisecond})
	parts, want := textParts()
	r.loadLines("/in", parts)
	var nonEmpty int
	r.env.Go("checker", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			p.Sleep(250 * time.Microsecond)
			live, replay := r.rt.LiveJobs(), r.rt.Master().Replayed()
			if len(live) > 0 {
				nonEmpty++
			}
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("replayed job state diverged at %v:\n live   %+v\n replay %+v", p.Now(), live, replay)
				return
			}
		}
	})
	r.runJobStopMaster(t, wordCountJob(r.inputs("/in"), "/out"))
	if nonEmpty == 0 {
		t.Fatal("checker never observed an in-flight job; widen its window")
	}
	st := r.rt.MasterStats()
	if st.JournalRecords == 0 {
		t.Error("no job-state records journaled")
	}
	if st.Checkpoints == 0 {
		t.Error("no checkpoint rolled mid-job at a 2ms interval")
	}
	if live, replay := r.rt.LiveJobs(), r.rt.Master().Replayed(); len(live) != 0 || len(replay) != 0 {
		t.Errorf("job state not retired after completion: live %d, replay %d", len(live), len(replay))
	}
	checkWordCount(t, r.readOutput(t, "/out"), want)
}

// TestJobTrackerBounceMidJob crashes the JobTracker mid-job and restarts it
// after an outage: task grants must stall (not fail), scheduling must
// resume, and the output must be exactly the healthy run's.
func TestJobTrackerBounceMidJob(t *testing.T) {
	r := masterRigMR(t, journal.Config{})
	parts, want := textParts()
	r.loadLines("/in", parts)
	r.env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		r.rt.Master().Crash()
		if !r.rt.Master().Down() {
			t.Error("Crash left the JobTracker serving")
		}
		p.Sleep(10 * time.Millisecond)
		r.rt.RestartJobTracker(p)
		r.rt.WaitMasterReady(p)
	})
	r.runJobStopMaster(t, wordCountJob(r.inputs("/in"), "/out"))
	st := r.rt.MasterStats()
	if st.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", st.Restarts)
	}
	if st.Stalls == 0 || st.StallTime == 0 {
		t.Errorf("no task tracker stalled on the outage: %+v", st)
	}
	checkWordCount(t, r.readOutput(t, "/out"), want)
}

// TestJobTrackerKillReplayDiff is the kill-replay-diff scenario at the
// JobTracker: snapshot the replayable state, crash, restart, and the
// recovered state must match the pre-crash snapshot exactly.
func TestJobTrackerKillReplayDiff(t *testing.T) {
	r := masterRigMR(t, journal.Config{})
	parts, _ := textParts()
	r.loadLines("/in", parts)
	r.env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond)
		pre := r.rt.LiveJobs()
		if len(pre) == 0 {
			t.Error("no job in flight at crash time; move the crash earlier")
			return
		}
		r.rt.Master().Crash()
		p.Sleep(5 * time.Millisecond)
		r.rt.RestartJobTracker(p)
		post := r.rt.Master().Replayed()
		// Map completions journaled during the outage (trackers finish work
		// already granted) are legitimately ahead of the snapshot; every bit
		// set pre-crash must survive, and nothing may regress.
		for name, j := range pre {
			pj := post[name]
			if pj == nil {
				t.Errorf("job %s lost across the bounce", name)
				continue
			}
			for i, done := range j.MapDone {
				if done && !pj.MapDone[i] {
					t.Errorf("job %s map %d regressed across the bounce", name, i)
				}
			}
			for i, done := range j.RedDone {
				if done && !pj.RedDone[i] {
					t.Errorf("job %s reduce %d regressed across the bounce", name, i)
				}
			}
		}
	})
	r.runJobStopMaster(t, wordCountJob(r.inputs("/in"), "/out"))
}

// FuzzJTCodec: a job record and a job image built from fuzzed fields parse
// back to themselves, and arbitrary bytes given to either parser return an
// error without panicking — anything accepted renders back to exactly those
// bytes.
func FuzzJTCodec(f *testing.F) {
	f.Add(uint8(jOpStart), "TS-sort", 12, 4, true, uint64(0b1011), uint8(9),
		[]byte("J KM-iter1 2 1 false\nM [true false]\nR [false]\n"))
	f.Add(uint8(jOpEnd), "job", -1, 0, false, uint64(0), uint8(0), []byte("MAP_DONE job 3 0"))
	f.Add(uint8(jOpFail), "[]", 0, 0, false, uint64(1), uint8(1), []byte("J a 0 0 false\nM []\nR []"))
	f.Fuzz(func(t *testing.T, op uint8, job string, a, b int, failed bool, bits uint64, n uint8, raw []byte) {
		if job != "" && utf8.ValidString(job) && !strings.ContainsFunc(job, unicode.IsSpace) {
			r := jtRec{op: jtOp(int(op) % len(jtOpNames)), job: job, a: a, b: b}
			if got, err := parseJTRec(strings.TrimSuffix(renderJTRec(r), "\n")); err != nil || got != r {
				t.Errorf("record %+v came back as %+v, %v", r, got, err)
			}
			var done []bool // nil when empty, as LiveJobs leaves it
			for i := range int(n) % 65 {
				done = append(done, bits>>i&1 == 1)
			}
			snap := JobTrackerSnapshot{
				job:       {TotalMaps: a, Reduces: b, MapDone: done, RedDone: done[len(done)/2:], Failed: failed},
				job + "2": {TotalMaps: b},
			}
			if got, err := parseJTImage(renderJTImage(snap)); err != nil || !reflect.DeepEqual(got, snap) {
				t.Errorf("image %q came back as %v, %v", renderJTImage(snap), got, err)
			}
		}
		if r, err := parseJTRec(string(raw)); err == nil && renderJTRec(r) != string(raw)+"\n" {
			t.Errorf("parseJTRec accepted %q as %+v, which renders as %q", raw, r, renderJTRec(r))
		}
		if snap, err := parseJTImage(raw); err == nil && string(renderJTImage(snap)) != string(raw) {
			t.Errorf("parseJTImage accepted %q, which renders as %q", raw, renderJTImage(snap))
		}
	})
}
