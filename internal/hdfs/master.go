// NameNode mortality: the master's metadata made durable and its process
// made killable. Every namespace mutation appends an edit record to the
// NameNode's write-ahead log (internal/journal, which owns the journal and
// fsimage files, the daemons, crash/restart with the replay and its check
// against live state, and the client stall); this file owns what is the
// NameNode's alone — the edit-record and fsimage codecs, the step a replay
// applies each record with (applyEdit), writer leases, and block-report safe
// mode after a restart.
//
// None of this exists unless EnableMaster is called: a run without master
// recovery allocates no metadata volume, journals nothing, and stays
// byte-identical to a build without this file.
package hdfs

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"iochar/internal/journal"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// safeModeFrac is the fraction of pre-crash replicas that must be
// re-confirmed by block reports before a restarted NameNode leaves safe mode
// (dfs.safemode.threshold.pct). Safe mode also exits once every live
// DataNode has reported, so a replica lost forever cannot wedge the cluster.
const safeModeFrac = 0.999

// MasterConfig tunes NameNode durability and recovery.
type MasterConfig struct {
	// Journal configures the write-ahead log: checkpoint cadence (expired
	// leases are also recovered on that tick) and client retry backoff.
	Journal journal.Config
	// LeaseTimeout is how long a writer may go without renewing its lease
	// before the NameNode seals the file on its behalf (the hard lease
	// limit; Hadoop's is an hour).
	LeaseTimeout time.Duration
}

// MasterStats counts the NameNode's durability and recovery work: the
// journal's counters (Stalls and StallTime are client operations that found
// the NameNode down or, for mutations, in safe mode) plus its own.
type MasterStats struct {
	journal.Stats
	SafeModeWait    time.Duration // total time spent in safe mode
	LeaseGrants     uint64        // leases granted to writers
	LeaseReleases   uint64        // leases released by a clean Close
	LeaseRecoveries uint64        // leases the NameNode recovered (expiry or dead client)
}

// editOp enumerates the journal's record types.
type editOp int

const (
	opCreate editOp = iota
	opAddBlock
	opClose
	opDelete
	opLeaseRecover
)

// editOpNames spells each record type in the journal, rendering and parsing.
var editOpNames = [...]string{
	opCreate:       "OP_ADD",
	opAddBlock:     "OP_ADD_BLOCK",
	opClose:        "OP_CLOSE",
	opDelete:       "OP_DELETE",
	opLeaseRecover: "OP_REASSIGN_LEASE",
}

// editRec is one journal record.
type editRec struct {
	op    editOp
	path  string
	block int64
	size  int64
	repl  int
}

// lease tracks one open file's writer.
type lease struct {
	client  string
	renewed time.Duration
}

// masterState is the live NameNode-durability machinery hanging off an FS.
type masterState struct {
	cfg    MasterConfig
	log    *journal.Log[editRec, NamespaceSnapshot]
	leases map[string]*lease

	safeMode         bool
	safeModeStart    time.Duration
	reported         map[*DataNode]bool
	expectedReplicas int
	reportedReplicas int

	stats MasterStats // the NameNode's own counters; the log keeps the rest
}

// EnableMaster switches on NameNode metadata durability, journaling to the
// given metadata volume. Call it once, before any files are created (so
// experiment setup is journaled too), and only for runs modeling master
// recovery — the machinery adds periodic events a healthy baseline must not
// carry.
func (fs *FS) EnableMaster(vol *localfs.FS, cfg MasterConfig) {
	if fs.master != nil {
		panic("hdfs: EnableMaster called twice")
	}
	if vol == nil {
		panic("hdfs: EnableMaster needs a metadata volume")
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 60 * time.Second
	}
	ms := &masterState{
		cfg:      cfg,
		leases:   make(map[string]*lease),
		reported: make(map[*DataNode]bool),
	}
	fs.master = ms
	ms.log = journal.New(fs.env, vol, journal.Spec[editRec, NamespaceSnapshot]{
		Master:         "hdfs: NameNode",
		JournalFile:    "nn_edits",
		ImageFile:      "nn_fsimage",
		FlushProc:      "namenode-editlog",
		CheckpointProc: "namenode-checkpoint",
		Render:         renderEdit,
		Parse:          parseEdit,
		Live:           fs.LiveNamespace,
		Apply:          applyEdit,
		RenderImage:    renderImage,
		ParseImage:     parseImage,
		// No checkpoint in safe mode (the namespace is not yet trusted), and
		// writers that stopped renewing are sealed before the image is cut.
		Tick: func(now time.Duration) bool {
			if ms.safeMode {
				return false
			}
			fs.recoverExpiredLeases(now)
			return true
		},
	}, cfg.Journal)
}

// Master is the NameNode's write-ahead log, nil unless EnableMaster was
// called: the run driver flushes and stops it, the fault injector crashes
// it.
func (fs *FS) Master() *journal.Log[editRec, NamespaceSnapshot] {
	if fs.master == nil {
		return nil
	}
	return fs.master.log
}

// MasterStats returns a copy of the NameNode durability counters (zero
// value when the master layer is not enabled).
func (fs *FS) MasterStats() MasterStats {
	if fs.master == nil {
		return MasterStats{}
	}
	st := fs.master.stats
	st.Stats = fs.master.log.Stats()
	return st
}

// MasterServing reports whether the NameNode is up and out of safe mode.
func (fs *FS) MasterServing() bool {
	ms := fs.master
	return ms == nil || (!ms.log.Down() && !ms.safeMode)
}

// journalEdit logs one namespace mutation (a no-op without the master layer).
func (fs *FS) journalEdit(r editRec) {
	if fs.master != nil {
		fs.master.log.Append(r)
	}
}

// renderEdit gives a record its on-disk shape — proportional real bytes in
// the spirit of an edit-log record — and parseEdit reads it back, accepting
// only what renderEdit writes.
func renderEdit(r editRec) string {
	return fmt.Sprintf("%s %s %d %d %d\n", editOpNames[r.op], r.path, r.block, r.size, r.repl)
}

func parseEdit(line string) (r editRec, err error) {
	var op string
	_, err = fmt.Sscanf(line, "%s %s %d %d %d", &op, &r.path, &r.block, &r.size, &r.repl)
	if r.op = editOp(slices.Index(editOpNames[:], op)); err == nil && (r.op < 0 || renderEdit(r) != line+"\n") {
		err = fmt.Errorf("hdfs: %q is not an edit record", line)
	}
	return r, err
}

// renderImage serializes a namespace snapshot deterministically.
func renderImage(snap NamespaceSnapshot) []byte {
	var buf []byte
	for _, p := range slices.Sorted(maps.Keys(snap)) {
		f := snap[p]
		buf = fmt.Appendf(buf, "F %s %d %t\n", p, f.Size, f.Open)
		for _, b := range f.Blocks {
			buf = fmt.Appendf(buf, "B %d %d %d\n", b.ID, b.Size, b.Want)
		}
	}
	return buf
}

// parseImage reads renderImage's bytes back, accepting only what it writes:
// whatever a line misreads, rendering the result again gives away.
func parseImage(image []byte) (NamespaceSnapshot, error) {
	snap, lines := NamespaceSnapshot{}, strings.Split(string(image), "\n")
	var f *FileRecord
	for _, line := range lines[:len(lines)-1] {
		var path string
		var b BlockRecord
		if _, err := fmt.Sscanf(line, "B %d %d %d", &b.ID, &b.Size, &b.Want); err == nil && f != nil {
			f.Blocks = append(f.Blocks, b)
			continue
		}
		f = new(FileRecord)
		_, _ = fmt.Sscanf(line, "F %s %d %t", &path, &f.Size, &f.Open) // a misread renders differently below
		snap[path] = f
	}
	if string(renderImage(snap)) != string(image) {
		return nil, fmt.Errorf("hdfs: fsimage is not as renderImage writes it")
	}
	return snap, nil
}

// RestartNameNode brings the NameNode back: it replays checkpoint+journal
// off the metadata disk (charged as a sequential read), checks the
// namespace rebuilt from those bytes against the live one (both in
// journal.Log.Restart), recovers the leases of writers whose nodes died
// during the outage, and — when failure detection is running — enters
// safe mode until enough replicas are re-confirmed by block reports.
// Heartbeat timestamps are reset so the outage itself cannot read as a
// cluster-wide dead timeout.
func (fs *FS) RestartNameNode(p *sim.Proc) {
	ms := fs.master
	if ms == nil || !ms.log.Down() {
		return
	}
	ms.log.Restart(p, func() {
		now := p.Now()
		// Leases: a writer on a dead node can never renew — seal its file now
		// so readers (and re-executed task attempts) are not wedged behind it.
		// Live writers get a fresh renewal stamp; they were merely stalled.
		for _, path := range slices.Sorted(maps.Keys(ms.leases)) {
			l := ms.leases[path]
			if dn, ok := fs.byNode[l.client]; ok && dn.crashed {
				fs.recoverLease(path)
				continue
			}
			l.renewed = now
		}
		if fs.rec != nil {
			expected := 0
			for _, b := range fs.blockByID {
				expected += len(b.replicas)
			}
			if expected > 0 {
				ms.safeMode = true
				ms.safeModeStart = now
				ms.expectedReplicas = expected
				ms.reportedReplicas = 0
				ms.reported = make(map[*DataNode]bool)
			}
		}
		for _, dn := range fs.datanodes {
			if !dn.crashed {
				dn.lastBeat = now
			}
		}
	})
	fs.maybeExitSafeMode()
}

// masterBlockReport is the NameNode processing one DataNode's safe-mode
// block report: credit every replica the node holds that the block map
// still expects of it.
func (fs *FS) masterBlockReport(dn *DataNode) {
	ms := fs.master
	if ms == nil || !ms.safeMode || ms.reported[dn] {
		return
	}
	ms.reported[dn] = true
	fs.stats.BlockReports++
	n := 0
	for id := range dn.blocks {
		if b := fs.blockByID[id]; b != nil && holdsReplica(b, dn) {
			n++
		}
	}
	ms.reportedReplicas += n
	fs.maybeExitSafeMode()
}

// maybeExitSafeMode leaves safe mode once the replica-report threshold is
// met, or once every live DataNode has reported (replicas lost for good
// must not wedge the cluster — their repair starts the moment safe mode
// lifts).
func (fs *FS) maybeExitSafeMode() {
	ms := fs.master
	if ms == nil || !ms.safeMode {
		return
	}
	need := int(safeModeFrac * float64(ms.expectedReplicas))
	done := ms.reportedReplicas >= need
	if !done {
		done = true
		for _, dn := range fs.datanodes {
			if !dn.crashed && !ms.reported[dn] {
				done = false
				break
			}
		}
	}
	if !done {
		return
	}
	ms.safeMode = false
	ms.stats.SafeModeWait += fs.env.Now() - ms.safeModeStart
	ms.log.NotifyReady()
}

// waitMaster stalls a client while the NameNode cannot serve it: any
// operation waits out a crash, and mutations additionally wait out safe
// mode. Retries follow bounded exponential backoff with jitter, so stalled
// clients pile back onto the restarted master staggered, not as a herd.
func (fs *FS) waitMaster(p *sim.Proc, mutating bool) {
	if ms := fs.master; ms != nil {
		ms.log.Stall(p, func() bool { return ms.log.Down() || (mutating && ms.safeMode) })
	}
}

// WaitMasterReady blocks p until the NameNode is up and out of safe mode —
// the run driver's barrier before waiting on block recovery.
func (fs *FS) WaitMasterReady(p *sim.Proc) {
	if ms := fs.master; ms != nil {
		ms.log.WaitReady(p, func() bool { return !fs.MasterServing() })
	}
}

// Lease bookkeeping, called from the namespace mutation paths.

func (fs *FS) grantLease(path, client string) {
	ms := fs.master
	if ms == nil {
		return
	}
	ms.leases[path] = &lease{client: client, renewed: fs.env.Now()}
	ms.stats.LeaseGrants++
}

func (fs *FS) renewLease(path string, now time.Duration) {
	ms := fs.master
	if ms == nil {
		return
	}
	if l, ok := ms.leases[path]; ok {
		l.renewed = now
	}
}

func (fs *FS) releaseLease(path string) {
	ms := fs.master
	if ms == nil {
		return
	}
	if _, ok := ms.leases[path]; ok {
		delete(ms.leases, path)
		ms.stats.LeaseReleases++
	}
}

// recoverLease is the NameNode sealing an open file whose writer is gone:
// the file closes at its current length and the action is journaled, so a
// replayed master agrees the file is readable.
func (fs *FS) recoverLease(path string) {
	ms := fs.master
	delete(ms.leases, path)
	f, ok := fs.files[path]
	if !ok || !f.open {
		return
	}
	f.open = false
	fs.journalEdit(editRec{op: opLeaseRecover, path: path})
	ms.stats.LeaseRecoveries++
}

// recoverExpiredLeases hard-expires leases that have gone LeaseTimeout
// without renewal — the writer died without its node being declared dead
// (or simply hung) and the file must not stay unreadable forever. The scan
// is in path order: its journal records must be deterministic.
func (fs *FS) recoverExpiredLeases(now time.Duration) {
	ms := fs.master
	for _, path := range slices.Sorted(maps.Keys(ms.leases)) {
		if now-ms.leases[path].renewed > ms.cfg.LeaseTimeout {
			fs.recoverLease(path)
		}
	}
}

// Replay-equivalence surface: a canonical namespace snapshot buildable both
// from the live state and from the fsimage and journal bytes, so a restart
// and the tests can check that the bytes rebuild exactly the live state.

// BlockRecord is one block in a namespace snapshot.
type BlockRecord struct {
	ID   int64
	Size int64
	Want int
}

// FileRecord is one file in a namespace snapshot.
type FileRecord struct {
	Size   int64
	Open   bool
	Blocks []BlockRecord
}

// NamespaceSnapshot is a canonical copy of the NameNode's namespace.
type NamespaceSnapshot map[string]*FileRecord

// LiveNamespace snapshots the NameNode's in-memory namespace.
func (fs *FS) LiveNamespace() NamespaceSnapshot {
	snap := make(NamespaceSnapshot, len(fs.files))
	for name, f := range fs.files {
		fr := &FileRecord{Size: f.size, Open: f.open}
		for _, b := range f.blocks {
			fr.Blocks = append(fr.Blocks, BlockRecord{ID: b.id, Size: b.size, Want: b.want})
		}
		snap[name] = fr
	}
	return snap
}

// applyEdit is a replay's step: one edit record applied to a namespace.
func applyEdit(snap NamespaceSnapshot, r editRec) NamespaceSnapshot {
	switch r.op {
	case opCreate:
		snap[r.path] = &FileRecord{Open: true}
	case opAddBlock:
		if f := snap[r.path]; f != nil {
			f.Blocks = append(f.Blocks, BlockRecord{ID: r.block, Size: r.size, Want: r.repl})
			f.Size += r.size
		}
	case opClose, opLeaseRecover:
		if f := snap[r.path]; f != nil {
			f.Open = false
		}
	case opDelete:
		delete(snap, r.path)
	}
	return snap
}
