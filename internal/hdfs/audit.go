// Post-run invariant auditing for the chaos harness: after recovery has
// quiesced, the namespace must be fully replicated (given the surviving
// nodes) and no DataNode may hold replica files the NameNode no longer
// credits. A violation means a recovery path lost or leaked data.
package hdfs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ReplicationAudit is the outcome of a full NameNode/DataNode cross-check;
// see FS.AuditReplication.
type ReplicationAudit struct {
	Blocks          int      // live blocks scanned
	UnderReplicated []string // "path blk_N have/want" for blocks short of target
	Orphans         []string // "node/blk_N" replica files outside the block map
	LostBlocks      []string // "path blk_N" blocks with zero live replicas
	Stale           []string // "node/blk_N" credited replicas with wrong size or bad chunks
	BadChunks       []string // the Stale replicas of blocks with checksums (integrity on)
}

// OK reports whether the audit found no violations.
func (a ReplicationAudit) OK() bool {
	return len(a.UnderReplicated) == 0 && len(a.Orphans) == 0 && len(a.LostBlocks) == 0 && len(a.Stale) == 0
}

// String renders a compact summary of the violations (empty when OK).
func (a ReplicationAudit) String() string {
	if a.OK() {
		return ""
	}
	return fmt.Sprintf("hdfs audit: %d under-replicated, %d orphans, %d lost, %d stale (of %d blocks)",
		len(a.UnderReplicated), len(a.Orphans), len(a.LostBlocks), len(a.Stale), a.Blocks)
}

// AuditReplication cross-checks the NameNode's block map against what the
// DataNodes actually store. For every live block it counts replicas that are
// really readable — on an uncrashed DataNode, on an unfailed volume — and
// flags the block when that count is below the achievable target
// (min(want, live DataNodes)). It also flags orphans: replica files a
// DataNode holds for blocks the NameNode has deleted or struck from that
// node. Run it after WaitRecovered; on a healthy or fully recovered cluster
// the audit is clean.
func (fs *FS) AuditReplication() ReplicationAudit {
	var a ReplicationAudit
	live := 0
	for _, dn := range fs.datanodes {
		if !dn.crashed {
			live++
		}
	}

	// NameNode side: every live block must meet its achievable target.
	ids := slices.Sorted(maps.Keys(fs.blockByID))
	owner := make(map[int64]string, len(ids))
	for name, f := range fs.files {
		for _, b := range f.blocks {
			owner[b.id] = name
		}
	}
	for _, id := range ids {
		b := fs.blockByID[id]
		a.Blocks++
		have := 0
		for _, dn := range b.replicas {
			if dn.crashed {
				continue
			}
			if sb, ok := dn.blocks[id]; ok && !sb.vol.Failed() {
				// A credited replica must also be the right bytes: a
				// crash-truncated partial or silently corrupt copy the
				// NameNode still credits is a stale replica that could
				// serve wrong data.
				if sb.file.Size() != b.size || !fs.replicaClean(b, sb, 0, b.size) {
					a.Stale = append(a.Stale, dn.node.Name+"/"+blockFileName(id))
					if b.sums != nil {
						a.BadChunks = append(a.BadChunks, a.Stale[len(a.Stale)-1])
					}
					continue
				}
				have++
			}
		}
		want := b.want
		if want > live {
			want = live
		}
		switch {
		case have == 0 && live > 0:
			a.LostBlocks = append(a.LostBlocks, fmt.Sprintf("%s blk_%d", owner[id], id))
		case have < want:
			a.UnderReplicated = append(a.UnderReplicated,
				fmt.Sprintf("%s blk_%d %d/%d", owner[id], id, have, want))
		}
	}

	// DataNode side: every replica a *live* DataNode stores must be credited
	// by the NameNode (crashed nodes legitimately keep unreachable files).
	for _, dn := range fs.datanodes {
		if dn.crashed {
			continue
		}
		for _, id := range slices.Sorted(maps.Keys(dn.blocks)) {
			b, ok := fs.blockByID[id]
			credited := false
			if ok {
				for _, have := range b.replicas {
					if have == dn {
						credited = true
						break
					}
				}
			}
			if !credited {
				a.Orphans = append(a.Orphans, fmt.Sprintf("%s/blk_%d", dn.node.Name, id))
			}
		}
	}
	sort.Strings(a.Orphans)
	return a
}
