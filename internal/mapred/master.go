// JobTracker mortality: job state journaled to the master's metadata
// volume and the scheduler made killable. Every job-state transition — job
// start, map completion, map-output loss, reduce completion, failure —
// appends a record to the JobTracker's write-ahead log (internal/journal,
// which owns the journal and image files, the daemons, crash/restart with
// the replay and its check against live state, and the grant stall); this
// file owns what is the JobTracker's alone — the job-record and image
// codecs, the step a replay applies each record with (applyJTRec), the
// cluster-membership events (node deaths, rejoins, volume failures) queued
// during an outage and applied at restart, the reconciliation of zombie
// map outputs via the task trackers' incarnation counters, and the
// partition half of a tracker's wait.
//
// None of this exists unless EnableMaster is called; a run without master
// recovery journals nothing and schedules byte-identically to a build
// without this file.
package mapred

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"iochar/internal/journal"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// MasterStats counts the JobTracker's durability and recovery work: the
// journal's counters (Stalls and StallTime are tracker grant requests that
// found the JobTracker down) plus its own.
type MasterStats struct {
	journal.Stats
	MissedEvents  uint64 // membership events queued during outages
	ZombieOutputs uint64 // map outputs reconciled away at restart
}

// jtOp enumerates the journal's record types.
type jtOp int

const (
	jOpStart jtOp = iota
	jOpMapDone
	jOpMapLost
	jOpRedDone
	jOpFail
	jOpEnd
)

// jtOpNames spells each record type in the journal, rendering and parsing.
var jtOpNames = [...]string{
	jOpStart:   "JOB_START",
	jOpMapDone: "MAP_DONE",
	jOpMapLost: "MAP_LOST",
	jOpRedDone: "REDUCE_DONE",
	jOpFail:    "JOB_FAIL",
	jOpEnd:     "JOB_END",
}

// jtRec is one journal record. a/b carry the op's integers: task or
// partition index, or (for JOB_START) total maps and reduces.
type jtRec struct {
	op   jtOp
	job  string
	a, b int
}

// jtMaster is the live JobTracker-durability machinery hanging off a
// Runtime.
type jtMaster struct {
	log    *journal.Log[jtRec, JobTrackerSnapshot]
	missed []func()    // membership changes that arrived while it was down, in arrival order
	stats  MasterStats // the JobTracker's own counters; the log keeps the rest
}

// EnableMaster switches on JobTracker job-state durability, journaling to
// the given metadata volume. Call it once, before any job runs, and only
// for runs modeling master recovery.
func (rt *Runtime) EnableMaster(vol *localfs.FS, cfg journal.Config) {
	if rt.master != nil {
		panic("mapred: EnableMaster called twice")
	}
	if vol == nil {
		panic("mapred: EnableMaster needs a metadata volume")
	}
	rt.jobs = make(map[string]*jobState)
	rt.master = &jtMaster{log: journal.New(rt.env, vol, journal.Spec[jtRec, JobTrackerSnapshot]{
		Master:         "mapred: JobTracker",
		JournalFile:    "jt_journal",
		ImageFile:      "jt_image",
		FlushProc:      "jobtracker-journal",
		CheckpointProc: "jobtracker-checkpoint",
		Render:         renderJTRec,
		Parse:          parseJTRec,
		Live:           rt.LiveJobs,
		Apply:          applyJTRec,
		RenderImage:    renderJTImage,
		ParseImage:     parseJTImage,
	}, cfg)}
}

// Master is the JobTracker's write-ahead log, nil unless EnableMaster was
// called: the run driver flushes and stops it, the fault injector crashes
// it.
func (rt *Runtime) Master() *journal.Log[jtRec, JobTrackerSnapshot] {
	if rt.master == nil {
		return nil
	}
	return rt.master.log
}

// MasterStats returns a copy of the JobTracker durability counters (zero
// value when the master layer is not enabled).
func (rt *Runtime) MasterStats() MasterStats {
	if rt.master == nil {
		return MasterStats{}
	}
	st := rt.master.stats
	st.Stats = rt.master.log.Stats()
	return st
}

// jtRecord logs one job-state transition (a no-op without the master layer).
func (js *jobState) jtRecord(op jtOp, a, b int) {
	if js.rt == nil || js.rt.master == nil {
		return
	}
	js.rt.master.log.Append(jtRec{op: op, job: js.jobName, a: a, b: b})
}

// renderJTRec gives a record its on-disk shape and parseJTRec reads it
// back, accepting only what renderJTRec writes.
func renderJTRec(r jtRec) string {
	return fmt.Sprintf("%s %s %d %d\n", jtOpNames[r.op], r.job, r.a, r.b)
}

func parseJTRec(line string) (r jtRec, err error) {
	var op string
	_, err = fmt.Sscanf(line, "%s %s %d %d", &op, &r.job, &r.a, &r.b)
	if r.op = jtOp(slices.Index(jtOpNames[:], op)); err == nil && (r.op < 0 || renderJTRec(r) != line+"\n") {
		err = fmt.Errorf("mapred: %q is not a job record", line)
	}
	return r, err
}

func renderJTImage(snap JobTrackerSnapshot) []byte {
	var buf []byte
	for _, n := range slices.Sorted(maps.Keys(snap)) {
		j := snap[n]
		buf = fmt.Appendf(buf, "J %s %d %d %t\n", n, j.TotalMaps, j.Reduces, j.Failed)
		buf = fmt.Appendf(buf, "M %v\nR %v\n", j.MapDone, j.RedDone)
	}
	return buf
}

// parseJTImage reads renderJTImage's bytes back, three lines a job,
// accepting only what it writes: whatever a line misreads, rendering the
// result again gives away.
func parseJTImage(image []byte) (JobTrackerSnapshot, error) {
	snap, lines := JobTrackerSnapshot{}, strings.Split(string(image), "\n")
	for ; len(lines) >= 3; lines = lines[3:] {
		var name string
		j := &JobRecord{MapDone: bools(lines[1]), RedDone: bools(lines[2])}
		_, _ = fmt.Sscanf(lines[0], "J %s %d %d %t", &name, &j.TotalMaps, &j.Reduces, &j.Failed) // a misread renders differently below
		snap[name] = j
	}
	if string(renderJTImage(snap)) != string(image) {
		return nil, fmt.Errorf("mapred: job image is not as renderJTImage writes it")
	}
	return snap, nil
}

// bools reads an image's M or R line, fmt's rendering of a []bool.
func bools(line string) (v []bool) {
	for _, f := range strings.Fields(strings.Trim(line, "MR []")) {
		v = append(v, f == "true")
	}
	return v
}

// RestartJobTracker brings the JobTracker back: it replays image+journal
// off the metadata disk (charged as a sequential read), checks the job
// table rebuilt from those bytes against the live one (both in
// journal.Log.Restart), applies the
// membership events missed during the outage in arrival order, reconciles
// zombie map outputs whose nodes died or bounced unseen (their incarnation
// counters no longer match), and resumes scheduling.
func (rt *Runtime) RestartJobTracker(p *sim.Proc) {
	ms := rt.master
	if ms == nil {
		return
	}
	ms.log.Restart(p, func() {
		missed := ms.missed
		ms.missed = nil
		for _, apply := range missed {
			apply()
		}
		// Belt and braces: an output whose node bounced entirely within the
		// outage produces no missed event pair that loses it, but its
		// incarnation counter gives the zombie away.
		for _, name := range slices.Sorted(maps.Keys(rt.jobs)) {
			js := rt.jobs[name]
			for _, out := range js.outputs {
				if out.lost {
					continue
				}
				if !out.node.Alive() || out.node.Incarnation() != out.inc {
					js.loseOutput(out)
					ms.stats.ZombieOutputs++
				}
			}
			js.broadcastAll()
		}
	})
}

// jtWait stalls a task tracker's grant request while the JobTracker is
// down, with jittered exponential backoff retries — and, symmetrically,
// while the tracker's node is partitioned away from the JobTracker's: a
// cut-off tracker behaves exactly like the client of a bounced master. The
// partition stall is bounded by the net-retry budget so a tracker on a
// permanently dead node cannot spin the simulation.
func (rt *Runtime) jtWait(p *sim.Proc, node string) {
	rt.jtDownStall(p)
	if node == "" {
		return
	}
	jt := rt.cl.Master.Name
	if rt.net.Reachable(node, jt) {
		return
	}
	retry := sim.NewRetry(rt.netRng)
	for !rt.net.Reachable(node, jt) && !rt.net.Down(node) {
		if _, ok := retry.Stall(p); !ok {
			break
		}
	}
	// The JobTracker may have bounced while this tracker was cut off.
	rt.jtDownStall(p)
}

// jtDownStall waits out a JobTracker crash with jittered backoff.
func (rt *Runtime) jtDownStall(p *sim.Proc) {
	if ms := rt.master; ms != nil {
		ms.log.Stall(p, ms.log.Down)
	}
}

// WaitMasterReady blocks p until the JobTracker is serving — the run
// driver's barrier before waiting out recovery.
func (rt *Runtime) WaitMasterReady(p *sim.Proc) {
	if ms := rt.master; ms != nil {
		ms.log.WaitReady(p, ms.log.Down)
	}
}

// deferMembership queues a membership event while the JobTracker is down:
// apply is the caller again, run at restart. It reports whether the event
// was queued (the caller then skips acting).
func (rt *Runtime) deferMembership(apply func()) bool {
	ms := rt.master
	if ms == nil || !ms.log.Down() {
		return false
	}
	ms.missed = append(ms.missed, apply)
	ms.stats.MissedEvents++
	return true
}

// Replay-equivalence surface.

// JobRecord is one in-flight job in a JobTracker snapshot.
type JobRecord struct {
	TotalMaps int
	Reduces   int
	MapDone   []bool
	RedDone   []bool
	Failed    bool
}

// JobTrackerSnapshot is a canonical copy of the JobTracker's in-flight job
// state, keyed by job name.
type JobTrackerSnapshot map[string]*JobRecord

// LiveJobs snapshots the scheduler's in-memory view of every in-flight job.
func (rt *Runtime) LiveJobs() JobTrackerSnapshot {
	snap := make(JobTrackerSnapshot, len(rt.jobs))
	for name, js := range rt.jobs {
		j := &JobRecord{TotalMaps: js.totalMaps, Reduces: len(js.redDone), Failed: js.failed != nil}
		j.MapDone = append(j.MapDone, js.completed...)
		j.RedDone = append(j.RedDone, js.redDone...)
		snap[name] = j
	}
	return snap
}

// applyJTRec is a replay's step: one job record applied to a job table.
func applyJTRec(snap JobTrackerSnapshot, r jtRec) JobTrackerSnapshot {
	switch r.op {
	case jOpStart:
		snap[r.job] = &JobRecord{
			TotalMaps: r.a,
			Reduces:   r.b,
			MapDone:   make([]bool, r.a),
			RedDone:   make([]bool, r.b),
		}
	case jOpMapDone:
		if j := snap[r.job]; j != nil && r.a < len(j.MapDone) {
			j.MapDone[r.a] = true
		}
	case jOpMapLost:
		if j := snap[r.job]; j != nil && r.a < len(j.MapDone) {
			j.MapDone[r.a] = false
		}
	case jOpRedDone:
		if j := snap[r.job]; j != nil && r.a < len(j.RedDone) {
			j.RedDone[r.a] = true
		}
	case jOpFail:
		if j := snap[r.job]; j != nil {
			j.Failed = true
		}
	case jOpEnd:
		delete(snap, r.job)
	}
	return snap
}
