// Fault-mode JobTracker mechanics: re-enqueueing map tasks whose outputs
// died with their node, releasing reduce partitions owned by dead trackers,
// and failing jobs cleanly when recovery budgets run out. Every function
// here is a no-op or unreachable in a healthy run — the fault-free
// scheduler path is byte-identical to one without this file.
package mapred

import (
	"errors"

	"iochar/internal/cluster"
	"iochar/internal/localfs"
	"iochar/internal/netsim"
	"iochar/internal/sim"
)

// OnVolumeDown is the JobTracker learning that an intermediate-data volume
// fail-stopped: completed map outputs stored on it are unreadable by the
// shuffle, so their tasks are re-enqueued (Hadoop's TaskTracker reports the
// failed mapred.local.dir and the affected attempts are re-run).
func (rt *Runtime) OnVolumeDown(vol *localfs.FS) {
	if rt.deferMembership(func() { rt.OnVolumeDown(vol) }) {
		return // the JobTracker is down; it learns of this at restart
	}
	for js := range rt.active {
		for _, out := range js.outputs {
			if out.vol == vol {
				js.loseOutput(out)
			}
		}
	}
}

// fetchOneFaulty is the recovery-aware shuffle fetch: a fetch that fails
// (the map-side node died mid-transfer, or the injected fetch fault dropped
// it) is retried with exponential backoff up to maxFetchRetries times, and
// past that the map output is declared lost, which re-enqueues its task.
//
// Transient network failures take a different path: a map-side node that is
// merely partitioned away (or a path whose loss rate exhausted the
// retransmit budget) heals on a schedule, so the fetcher waits it out under
// sim.NewRetry's much larger budget — and never charges the
// tracker's blacklist account, because the fabric, not the tracker, is at
// fault. Losing the output (and re-executing the map) happens only when the
// net-retry budget is exhausted too.
func (rt *Runtime) fetchOneFaulty(fp *sim.Proc, js *jobState, st *fetchState, out *mapOutput, node *cluster.Node, part int, ingest func(*sim.Proc, []byte, segment)) {
	seg := out.segs[part]
	mark := func() {
		st.got[out.taskIdx] = true
		st.count++
		if st.count >= js.totalMaps {
			js.outputsCond.Broadcast() // release sibling fetchers parked for more
		}
	}
	if seg.clen == 0 {
		mark()
		return
	}
	retries, netRetry := 0, sim.NewRetry(rt.netRng)
	// netStall backs off across a transient network fault; false means the
	// budget ran out and the output was declared lost.
	netStall := func() bool {
		js.counters.FetchRetries++
		js.counters.NetFetchStalls++
		_, ok := netRetry.Stall(fp)
		if !ok {
			js.counters.FailedFetches++
			js.loseOutput(out)
		}
		return ok
	}
	for {
		if !node.Alive() || js.failed != nil || js.done {
			return // zombie fetcher; this attempt is being discarded
		}
		if out.lost {
			return // a replacement output will appear in the list
		}
		if !out.node.Alive() || out.node.Incarnation() != out.inc {
			js.loseOutput(out)
			return
		}
		dropped := rt.fetchFault != nil && rt.fetchFault(fp.Now())
		if !dropped {
			if !rt.net.Reachable(out.node.Name, node.Name) {
				// Partitioned away from the map side: don't charge the
				// remote disk read, just wait for the heal.
				if !netStall() {
					return
				}
				continue
			}
			enc := out.file.ReadAt(fp, seg.off, seg.clen) // map-side disk read
			if out.lost || out.node.Incarnation() != out.inc {
				return // the owner died (or bounced) while the read slept;
				// enc may be crash-truncated and a replacement will appear
			}
			err := rt.net.TryTransfer(fp, out.node.Name, node.Name, seg.clen)
			if err == nil {
				ingest(fp, enc, seg)
				mark()
				return
			}
			if errors.Is(err, netsim.ErrTransient) {
				if !netStall() {
					return
				}
				continue
			}
		}
		retries++
		js.counters.FetchRetries++
		if retries > maxFetchRetries {
			js.counters.FailedFetches++
			js.noteTrackerFailure(out.node.Name)
			js.loseOutput(out)
			return
		}
		fp.Sleep(js.cfg.fetchRetryDelay << (retries - 1)) // exponential backoff
	}
}

// noteTrackerFailure charges one failed task attempt to a tracker; at
// maxTrackerFailures the node is blacklisted — no new attempts are
// scheduled there (Hadoop's per-job tracker blacklist), so a fail-slow node
// stops soaking up the retry budget. Parked workers on the node are woken
// so they observe the blacklist and vacate their slots.
func (js *jobState) noteTrackerFailure(node string) {
	if !js.faulty || js.blacklisted[node] {
		return
	}
	js.trackerFailures[node]++
	if js.trackerFailures[node] < maxTrackerFailures {
		return
	}
	js.blacklisted[node] = true
	js.counters.BlacklistedTrackers++
	js.mapWorkCond.Broadcast()
	js.redCond.Broadcast()
}

// fail records the job's terminal error once and wakes every parked worker
// so the job drains instead of hanging.
func (js *jobState) fail(err error) {
	if js.failed != nil {
		return
	}
	js.failed = err
	js.jtRecord(jOpFail, 0, 0)
	js.broadcastAll()
}

func (js *jobState) broadcastAll() {
	js.outputsCond.Broadcast()
	js.slowCond.Broadcast()
	if js.mapWorkCond != nil {
		js.mapWorkCond.Broadcast()
	}
	if js.redCond != nil {
		js.redCond.Broadcast()
	}
}

// noteAttempt records that node is running an attempt of task i, so the
// JobTracker can tell whether a task still has a live attempt when a node
// dies. Pure bookkeeping; kept on in healthy runs for simplicity.
func (js *jobState) noteAttempt(i int, node string) {
	if js.attemptNodes == nil {
		return
	}
	js.attemptNodes[i] = append(js.attemptNodes[i], node)
}

// clearAttempt removes one record of node running task i (the attempt
// returned, whatever its outcome).
func (js *jobState) clearAttempt(i int, node string) {
	if js.attemptNodes == nil {
		return
	}
	for k, n := range js.attemptNodes[i] {
		if n == node {
			js.attemptNodes[i] = append(js.attemptNodes[i][:k], js.attemptNodes[i][k+1:]...)
			return
		}
	}
}

// loseOutput declares a map output unusable (its node died, or fetches of
// it exhausted their retries): the task is re-enqueued unless another
// attempt is still running, and parked map workers and fetchers are woken.
// Idempotent per output.
func (js *jobState) loseOutput(out *mapOutput) {
	if !js.faulty || out.lost {
		return
	}
	out.lost = true
	i := out.taskIdx
	if js.completed[i] {
		js.completed[i] = false
		js.jtRecord(jOpMapLost, i, 0)
		js.mapsDone--
		js.counters.ReExecutedMaps++
	}
	if js.taken[i] && len(js.attemptNodes[i]) == 0 {
		js.taken[i] = false
		js.mapsLeft++
	}
	js.mapWorkCond.Broadcast()
	js.outputsCond.Broadcast()
}

// finishReduce marks a partition complete if this node still owns it. A
// false return means the attempt was a zombie (its partition was
// reassigned after its node was declared dead) and its results must be
// discarded. Healthy runs always win: each partition runs exactly once.
func (js *jobState) finishReduce(part int, node string) bool {
	if !js.faulty {
		if js.redDone != nil && !js.redDone[part] {
			// Master-recovery mode on a healthy run: record the completion the
			// fault path below would have.
			js.redDone[part] = true
			js.jtRecord(jOpRedDone, part, 0)
		}
		return true
	}
	if js.redDone[part] || js.redOwner[part] != node {
		return false
	}
	js.redDone[part] = true
	js.jtRecord(jOpRedDone, part, 0)
	js.redDoneCount++
	js.redCond.Broadcast()
	if js.redDoneCount == len(js.redDone) {
		js.done = true
		js.broadcastAll()
	}
	return true
}

// onNodeDown is the per-job half of Runtime.OnNodeDown: write off the dead
// node's running attempts, lose its finished map outputs, and release its
// reduce partitions.
func (js *jobState) onNodeDown(name string) {
	if !js.faulty {
		return
	}
	for i := range js.attemptNodes {
		kept := js.attemptNodes[i][:0]
		for _, n := range js.attemptNodes[i] {
			if n != name {
				kept = append(kept, n)
			}
		}
		js.attemptNodes[i] = kept
		if js.taken[i] && !js.completed[i] && len(kept) == 0 {
			js.taken[i] = false
			js.mapsLeft++
		}
	}
	for _, out := range js.outputs {
		if out.node.Name == name {
			js.loseOutput(out)
		}
	}
	for i := range js.redOwner {
		if js.redClaimed[i] && !js.redDone[i] && js.redOwner[i] == name {
			js.redClaimed[i] = false
			js.redOwner[i] = ""
		}
	}
	js.redCond.Broadcast()
	js.mapWorkCond.Broadcast()
	js.outputsCond.Broadcast()
}
