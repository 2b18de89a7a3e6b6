// HDFS failure detection and repair: DataNode heartbeats, the NameNode's
// dead-node monitor, and the background re-replication pipeline that
// restores each block's replication factor with real byte copies through
// the disk and network models.
//
// None of this machinery exists unless EnableRecovery is called — a
// fault-free run spawns no heartbeat processes, takes no extra events, and
// produces byte-identical counters to a build without this file.
package hdfs

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// RecoveryConfig tunes failure detection and repair, mirroring the Hadoop
// 1.x knobs it abstracts.
type RecoveryConfig struct {
	// HeartbeatInterval is how often each DataNode reports in
	// (dfs.heartbeat.interval, default 3 s).
	HeartbeatInterval time.Duration
	// DeadTimeout is how long the NameNode waits past the last heartbeat
	// before declaring a DataNode dead. Hadoop's default is 10.5 min; fault
	// experiments usually shorten it so recovery fits the run.
	DeadTimeout time.Duration
}

// replStreams is the number of concurrent re-replication copies
// (dfs.max-repl-streams, Hadoop's default).
const replStreams = 2

// RecoveryStats counts the repair work a run performed.
type RecoveryStats struct {
	ReReplicatedBlocks uint64 // block copies made to restore replication
	ReReplicatedBytes  uint64 // bytes moved by those copies
	DeadDataNodes      int    // DataNodes the NameNode declared dead
	FailedVolumes      int    // volumes that fail-stopped and were reported
	LostBlocks         int    // blocks whose every replica was lost
	PipelineRetries    uint64 // whole-block write pipeline re-attempts
	ReadFailovers      uint64 // mid-stream reader failovers to another replica

	// Integrity and restart accounting (zero unless those features ran).
	ChecksumErrors      uint64 // chunk verifications that failed (read, scrub, or copy)
	CorruptReplicas     int    // replicas struck as corrupt and queued for read-repair
	ScrubbedBlocks      uint64 // replica verifications the scrubber performed
	ScrubbedBytes       uint64 // bytes the scrubber read off disk
	BlockReports        int    // rejoin block reports the NameNode processed
	ReAdoptedReplicas   int    // replicas re-credited intact from a rejoining node
	StaleReplicasPurged int    // rejoin-scanned files deleted as stale or excess
	CancelledRepairs    int    // queued repairs dequeued as no longer needed

	// Network-fault accounting (zero unless the fabric was faulted).
	NetStalls    uint64        // backoff sleeps waiting out transient network faults
	NetStallTime time.Duration // total time spent in those stalls
}

// recoveryState is the live recovery machinery hanging off an FS.
type recoveryState struct {
	cfg     RecoveryConfig
	queue   []*blockMeta // under-replicated blocks awaiting repair
	queued  map[int64]bool
	inWork  int       // copies currently in flight
	work    *sim.Cond // signalled when queue gains work or stops
	idle    *sim.Cond // signalled when recovery may have quiesced
	stopped bool
}

// EnableRecovery switches on failure detection and repair: one heartbeat
// process per DataNode, the NameNode monitor, and replStreams
// re-replication workers. Call it once, before Run, and only for runs with a
// fault plan — the machinery adds periodic events that a healthy-baseline
// run should not carry. Both intervals must be positive: a zero heartbeat
// would loop forever at one instant.
func (fs *FS) EnableRecovery(cfg RecoveryConfig) {
	if fs.rec != nil {
		panic("hdfs: EnableRecovery called twice")
	}
	if cfg.HeartbeatInterval <= 0 || cfg.DeadTimeout <= 0 {
		panic(fmt.Sprintf("hdfs: EnableRecovery needs positive intervals, got heartbeat %v / dead timeout %v", cfg.HeartbeatInterval, cfg.DeadTimeout))
	}
	rec := &recoveryState{
		cfg:    cfg,
		queued: make(map[int64]bool),
		work:   sim.NewCond(fs.env),
		idle:   sim.NewCond(fs.env),
	}
	fs.rec = rec
	for _, dn := range fs.datanodes {
		dn.lastBeat = fs.env.Now()
		fs.startHeartbeat(dn)
	}
	// The NameNode monitor never waits mid-check (declareDead does not
	// block), so it is an After chain, not a process.
	var monitor func()
	monitor = func() {
		fs.env.After(cfg.HeartbeatInterval, func() {
			if rec.stopped {
				return
			}
			// A dead or restarting NameNode declares nobody dead: while down
			// it sees no clock, and in safe mode judging liveness from beats
			// missed during its own outage would kill the whole cluster.
			// Timestamps are reset at restart.
			if fs.MasterServing() {
				for _, dn := range fs.datanodes {
					if !dn.deadByNN && fs.env.Now()-dn.lastBeat > cfg.DeadTimeout {
						fs.declareDead(dn)
					}
				}
			}
			monitor()
		})
	}
	fs.env.After(0, monitor)
	for i := 0; i < replStreams; i++ {
		fs.env.Go(fmt.Sprintf("re-replicator-%d", i), func(p *sim.Proc) {
			fs.replicationWorker(p)
		})
	}
}

// startHeartbeat spawns the DataNode's heartbeat process. The generation
// counter retires a predecessor that has not yet noticed its node crashed:
// a crash–rejoin shorter than one heartbeat interval must not leave two
// beating processes for one node.
func (fs *FS) startHeartbeat(dn *DataNode) {
	rec := fs.rec
	dn.beatGen++
	gen := dn.beatGen
	fs.env.Go("heartbeat:"+dn.node.Name, func(p *sim.Proc) {
		for {
			p.Sleep(rec.cfg.HeartbeatInterval)
			if rec.stopped || dn.crashed || dn.beatGen != gen {
				return
			}
			if ms := fs.master; ms != nil && ms.log.Down() {
				continue // nobody is listening; the beat goes unheard
			}
			if fs.masterNode != "" && !fs.net.Reachable(dn.node.Name, fs.masterNode) {
				continue // partitioned away from the NameNode; the beat is lost
			}
			dn.lastBeat = p.Now()
			if dn.deadByNN {
				// The NameNode declared this node dead while it was cut off
				// (a partition long enough to miss the dead timeout). The
				// first beat that gets through re-registers with a block
				// report, exactly as a restarted DataNode would.
				fs.reregister(p, dn)
				if rec.stopped || dn.crashed || dn.beatGen != gen {
					return
				}
				continue
			}
			if ms := fs.master; ms != nil && ms.safeMode {
				fs.masterBlockReport(dn)
			}
		}
	})
}

// RecoveryStats returns a copy of the repair counters; a run that fails,
// corrupts and scrubs nothing leaves them all zero.
func (fs *FS) RecoveryStats() RecoveryStats { return fs.stats }

// CrashDataNode fail-stops the DataNode on the named cluster node: it stops
// serving reads and write-pipeline hops immediately and stops heartbeating,
// so the NameNode declares it dead after DeadTimeout. The caller (the fault
// injector) is responsible for also severing the node's network if the
// whole machine died rather than just the DataNode process.
func (fs *FS) CrashDataNode(node string) {
	dn, ok := fs.byNode[node]
	if !ok {
		panic("hdfs: CrashDataNode: no datanode on " + node)
	}
	dn.crashed = true
	if fs.rec != nil {
		fs.rec.idle.Broadcast()
	}
	// A safe-mode master waiting on this node's block report must not wait
	// forever: re-evaluate the exit condition against the shrunken live set.
	fs.maybeExitSafeMode()
}

// FailVolume fail-stops one HDFS volume on the named node. Unlike a node
// crash, the DataNode itself survives and reports the disk failure to the
// NameNode immediately (Hadoop's DataNode re-registers on a dfs.data.dir
// error), so the lost replicas enter the repair queue with no detection
// latency.
func (fs *FS) FailVolume(node string, vol *localfs.FS) {
	dn, ok := fs.byNode[node]
	if !ok {
		panic("hdfs: FailVolume: no datanode on " + node)
	}
	vol.Fail()
	fs.stats.FailedVolumes++
	for _, id := range slices.Sorted(maps.Keys(dn.blocks)) {
		if dn.blocks[id].vol != vol {
			continue
		}
		delete(dn.blocks, id)
		b := fs.blockByID[id]
		if b == nil {
			continue
		}
		fs.dropReplica(b, dn)
	}
}

// declareDead is the NameNode acting on a missed-heartbeat timeout: every
// replica on the dead node is struck from the block map and each affected
// block joins the repair queue, in block-ID order: map order is random, and
// the queue's order moves disk contention and so every later event.
func (fs *FS) declareDead(dn *DataNode) {
	dn.deadByNN = true
	fs.stats.DeadDataNodes++
	for _, id := range slices.Sorted(maps.Keys(dn.blocks)) {
		if b := fs.blockByID[id]; b != nil {
			fs.dropReplica(b, dn)
		}
	}
	fs.rec.idle.Broadcast()
}

// dropReplica removes dn from b's replica set and queues b for repair if it
// fell below its target factor.
func (fs *FS) dropReplica(b *blockMeta, dn *DataNode) {
	for i, have := range b.replicas {
		if have == dn {
			b.replicas = append(b.replicas[:i], b.replicas[i+1:]...)
			break
		}
	}
	if len(b.replicas) == 0 {
		b.verified = nil // the memo must not keep an array no replica serves
		fs.stats.LostBlocks++
		return
	}
	if len(b.replicas) < b.want {
		fs.enqueueUnderReplicated(b)
	}
}

// dequeueRepair removes b from the pending-repair queue — the block got
// back to its target factor by other means (a rejoining node re-adopting
// the replica whose loss queued it) and the copy is no longer needed.
func (fs *FS) dequeueRepair(b *blockMeta) {
	rec := fs.rec
	if rec == nil || !rec.queued[b.id] {
		return
	}
	for i, q := range rec.queue {
		if q == b {
			rec.queue = append(rec.queue[:i], rec.queue[i+1:]...)
			break
		}
	}
	delete(rec.queued, b.id)
	fs.stats.CancelledRepairs++
	rec.idle.Broadcast()
}

// enqueueUnderReplicated queues b for background repair. A no-op without
// recovery enabled (a healthy run can still create under-replicated blocks
// when a file asks for more replicas than exist; the seed behaved the same).
func (fs *FS) enqueueUnderReplicated(b *blockMeta) {
	rec := fs.rec
	if rec == nil || rec.stopped || rec.queued[b.id] {
		return
	}
	rec.queued[b.id] = true
	rec.queue = append(rec.queue, b)
	rec.work.Broadcast()
}

// replicationWorker drains the under-replicated queue: pick a live source
// replica, read the block's bytes off its disk, stream them to a live
// target that lacks the block, and append them to the target's volume —
// the same byte-for-byte path a DataNode-to-DataNode DataTransfer takes.
func (fs *FS) replicationWorker(p *sim.Proc) {
	rec := fs.rec
	for {
		for len(rec.queue) == 0 {
			if rec.stopped {
				return
			}
			rec.work.Wait(p)
		}
		// Repairs are NameNode-directed: pause while the master is down or
		// in safe mode (block reports may be about to re-adopt the very
		// replicas this queue would copy).
		if ms := fs.master; ms != nil {
			ms.log.WaitReady(p, func() bool { return !rec.stopped && !fs.MasterServing() })
		}
		if rec.stopped {
			return
		}
		if len(rec.queue) == 0 {
			// Drained while we waited out the master: a block report
			// re-adopted the queued replicas and cancelled the repairs.
			continue
		}
		b := rec.queue[0]
		rec.queue = rec.queue[1:]
		delete(rec.queued, b.id)
		if b.gone || len(b.replicas) == 0 || len(b.replicas) >= b.want {
			if !b.gone && len(b.replicas) >= b.want {
				// The block got back to target while queued — typically a
				// rejoining node re-adopting the very replica whose loss
				// queued the repair.
				fs.stats.CancelledRepairs++
			}
			rec.idle.Broadcast()
			continue
		}
		rec.inWork++
		copied, retry := fs.copyBlock(p, b)
		rec.inWork--
		// Re-enqueue on mid-copy failure, or after a successful copy that
		// still leaves the block short. A block with no live source or no
		// eligible target is NOT re-queued — it would spin without
		// advancing virtual time; dropReplica re-queues it when the
		// NameNode's view changes.
		if retry || (copied && !b.gone && len(b.replicas) < b.want) {
			fs.enqueueUnderReplicated(b)
		}
		rec.idle.Broadcast()
	}
}

// copyBlock makes one replica of b. copied reports a new replica landed;
// retry reports a mid-copy failure (source or target died after virtual
// time was spent) worth another attempt from the survivors.
func (fs *FS) copyBlock(p *sim.Proc, b *blockMeta) (copied, retry bool) {
	var src, dst *DataNode
	var sb storedBlock
	topoBlocked := false
	for _, dn := range b.replicas {
		if dn.crashed {
			continue
		}
		s, ok := dn.blocks[b.id]
		if !ok || s.vol.Failed() {
			continue
		}
		d, blocked := fs.chooseTarget(b, dn.node.Name)
		if d != nil {
			src, sb, dst = dn, s, d
			break
		}
		if blocked {
			topoBlocked = true
		}
	}
	if src == nil || dst == nil {
		if topoBlocked {
			// Live sources exist but every eligible target is across a
			// partition. Partitions heal on a schedule: sleep one beat and
			// retry instead of dropping the block from the queue — and
			// instead of spinning at zero virtual time.
			p.Sleep(fs.rec.cfg.HeartbeatInterval)
			return false, true
		}
		return false, false // nothing live to copy from, or no eligible target
	}
	content := sb.file.ReadAt(p, 0, b.size)
	if fs.integrity && !fs.verifyRange(b, sb, 0, b.size) {
		// The chosen source is itself corrupt: strike it and retry from the
		// survivors — replication must never propagate bad bytes.
		fs.reportCorrupt(b, src)
		return false, len(b.replicas) > 0
	}
	if err := fs.net.TryTransfer(p, src.node.Name, dst.node.Name, b.size); err != nil {
		return false, true // died mid-stream; retry from survivors
	}
	if dst.crashed || b.gone {
		return false, !b.gone
	}
	f := dst.node.NextHDFSVol().Create(blockFileName(b.id))
	f.SetStage(disk.StageHDFS)
	f.Append(p, content) // the source's read-only view: the copy shares its array
	if b.gone || dst.crashed || f.FS().Failed() {
		// The block was deleted — or the target (node or volume) died —
		// while the copy was landing; crediting it now would leave an orphan
		// or unreadable replica. The volume check matters: FailVolume's
		// replica sweep only sees blocks the DataNode already credits, so a
		// copy still in flight at the failure would otherwise land dead and
		// never re-enter the repair queue.
		_ = f.FS().Delete(f.Name())
		return false, !b.gone
	}
	dst.blocks[b.id] = storedBlock{file: f, vol: f.FS()}
	b.replicas = append(b.replicas, dst)
	fs.stats.ReReplicatedBlocks++
	fs.stats.ReReplicatedBytes += uint64(b.size)
	return true, false
}

// chooseTarget picks a live DataNode that does not already hold b and is
// reachable from the copy source, using the same round-robin cursor as
// initial placement. blocked reports that a target exists but only across
// a partition — the caller's cue to wait for the heal rather than give up.
func (fs *FS) chooseTarget(b *blockMeta, src string) (dst *DataNode, blocked bool) {
	for range fs.datanodes {
		dn := fs.datanodes[fs.place%len(fs.datanodes)]
		fs.place++
		if dn.crashed {
			continue
		}
		holds := false
		for _, have := range b.replicas {
			if have == dn {
				holds = true
				break
			}
		}
		if holds {
			continue
		}
		if !fs.net.Reachable(src, dn.node.Name) {
			blocked = true
			continue
		}
		return dn, false
	}
	return nil, blocked
}

// pendingDetection counts crashed DataNodes the NameNode has not yet
// declared dead — failures whose repair work has not entered the queue.
func (fs *FS) pendingDetection() int {
	n := 0
	for _, dn := range fs.datanodes {
		if dn.crashed && !dn.deadByNN {
			n++
		}
	}
	return n
}

// WaitRecovered blocks p until failure handling has quiesced: every crashed
// DataNode has been declared dead and the repair queue has drained. It
// returns immediately when recovery is not enabled or nothing failed. Call
// it after the workload finishes so the run's iostat window includes the
// recovery traffic.
func (fs *FS) WaitRecovered(p *sim.Proc) {
	rec := fs.rec
	if rec == nil {
		return
	}
	for !rec.stopped && (fs.pendingDetection() > 0 || len(rec.queue) > 0 || rec.inWork > 0) {
		rec.idle.Wait(p)
	}
}

// StopRecovery shuts the machinery down: heartbeat and monitor processes
// exit at their next tick and replication workers exit immediately, letting
// Env.Run(0) drain. Pending repairs are abandoned.
func (fs *FS) StopRecovery() {
	rec := fs.rec
	if rec == nil || rec.stopped {
		return
	}
	rec.stopped = true
	rec.work.Broadcast()
	rec.idle.Broadcast()
	if ms := fs.master; ms != nil {
		// Replication workers may be parked on the master-ready condition.
		ms.log.NotifyReady()
	}
}
