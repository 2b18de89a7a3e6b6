// DataNode restart: a crashed DataNode coming back up re-registers with
// the NameNode and sends a block report — the list of replica files its
// volumes actually hold. The NameNode reconciles the report against its
// block map: intact replicas of still-live, still-short blocks are
// re-adopted (cancelling now-unneeded re-replication work already queued),
// while stale files — deleted blocks, crash-truncated partials, corrupt
// bytes, or copies of blocks already back at target — are purged from the
// volume. This is the invalidation/re-registration protocol that keeps a
// returning node from serving the past.
package hdfs

import (
	"fmt"
	"maps"
	"slices"

	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// RejoinDataNode restarts the DataNode on the named cluster node after a
// crash: heartbeats resume, and the block report is reconciled as
// described in the file comment. The caller (the fault injector's rejoin
// path) must first bring the node's volumes and network back. No-op if the
// node never crashed.
func (fs *FS) RejoinDataNode(p *sim.Proc, node string) {
	dn, ok := fs.byNode[node]
	if !ok {
		panic("hdfs: RejoinDataNode: no datanode on " + node)
	}
	if !dn.crashed {
		return
	}
	dn.crashed = false
	if fs.rec != nil {
		fs.startHeartbeat(dn)
	}
	fs.reregister(p, dn)
}

// reregister sends a DataNode's re-registration block report to the
// NameNode and reconciles it. Shared by the crash-restart path
// (RejoinDataNode) and the partition-heal path: a node the NameNode
// declared dead for missed heartbeats during a partition re-registers from
// its heartbeat loop once a beat gets through, with exactly the same
// reconciliation — intact replicas re-adopted, stale and excess files
// purged, unconfirmed credits struck.
func (fs *FS) reregister(p *sim.Proc, dn *DataNode) {
	dn.deadByNN = false
	dn.lastBeat = p.Now()
	fs.stats.BlockReports++

	old := dn.blocks
	dn.blocks = make(map[int64]storedBlock)
	for _, vol := range dn.node.HDFSVols {
		if vol.Failed() {
			continue
		}
		for _, name := range vol.List() {
			id, ok := parseBlockFileName(name)
			if !ok {
				continue
			}
			fs.reconcileReported(dn, vol, name, id, old)
			if dn.crashed {
				// Died again while the report's integrity reads slept. Stop
				// scanning; the next rejoin (or dead detection) takes over.
				return
			}
		}
	}
	// Strike credited replicas the report did not confirm — crash-truncated
	// partials the scan purged, files on a volume that failed while the node
	// was down. The node returned before the dead timeout, so these were
	// never struck by detection; without this the NameNode keeps crediting
	// copies the node cannot serve and never queues their repair.
	for _, id := range slices.Sorted(maps.Keys(old)) {
		if _, confirmed := dn.blocks[id]; confirmed {
			continue
		}
		b := fs.blockByID[id]
		if b == nil || b.gone || !holdsReplica(b, dn) {
			continue
		}
		fs.strikeReplica(b, dn)
	}
	if fs.rec != nil {
		fs.rec.idle.Broadcast()
	}
}

// strikeReplica removes dn from b's credited and landed sets and queues the
// block for repair if it is now below target.
func (fs *FS) strikeReplica(b *blockMeta, dn *DataNode) {
	for i, have := range b.landed {
		if have == dn {
			b.landed = append(b.landed[:i], b.landed[i+1:]...)
			break
		}
	}
	fs.dropReplica(b, dn)
}

// reconcileReported is the NameNode handling one entry of a block report.
func (fs *FS) reconcileReported(dn *DataNode, vol *localfs.FS, name string, id int64, old map[int64]storedBlock) {
	purge := func() {
		vol.Delete(name)
		fs.stats.StaleReplicasPurged++
	}
	b := fs.blockByID[id]
	if b == nil || b.gone {
		purge() // block deleted while the node was down
		return
	}
	sb, had := old[id]
	if !had || sb.vol != vol {
		h, err := vol.Open(name)
		if err != nil {
			return
		}
		sb = storedBlock{file: h, vol: vol}
	}
	if vol.Size(name) != b.size || (fs.integrity && !fs.replicaClean(b, sb, 0, b.size)) {
		purge() // crash-truncated partial or rotten bytes
		return
	}
	if holdsReplica(b, dn) {
		// Never struck from the map (the node returned before the dead
		// timeout): keep serving it.
		dn.blocks[id] = sb
		return
	}
	if len(b.replicas) >= b.want {
		purge() // already repaired elsewhere; this copy is excess
		return
	}
	// Intact, needed, and uncredited: re-adopt.
	dn.blocks[id] = sb
	b.replicas = append(b.replicas, dn)
	if !holdsLanded(b, dn) {
		b.landed = append(b.landed, dn)
	}
	fs.stats.ReAdoptedReplicas++
	if len(b.replicas) >= b.want {
		// Re-adoption restored the target factor: strike the pending
		// re-replication queued when the node bounced inside its own
		// dead-timeout window. Left queued, the entry keeps the recovery
		// barrier open and a repair worker can race it against the block
		// report, copying an excess replica the reconciliation then purges —
		// the node's bounce double-counted in the recovering iostat group.
		fs.dequeueRepair(b)
	}
}

func holdsReplica(b *blockMeta, dn *DataNode) bool {
	for _, have := range b.replicas {
		if have == dn {
			return true
		}
	}
	return false
}

func holdsLanded(b *blockMeta, dn *DataNode) bool {
	for _, have := range b.landed {
		if have == dn {
			return true
		}
	}
	return false
}

func parseBlockFileName(name string) (int64, bool) {
	var id int64
	if _, err := fmt.Sscanf(name, "blk_%d", &id); err != nil {
		return 0, false
	}
	return id, name == blockFileName(id)
}
