// Post-run invariant auditing — the oracles the chaos harness checks after
// a faulted run drains. The audit cross-checks every durable layer of the
// testbed: HDFS must be fully replicated with no orphaned replicas, the
// local filesystems must not have leaked extents, the page caches must hold
// no dirty pages after the end-of-run sync, and every job output must be
// readable with a canonical content checksum for comparison against a
// fault-free golden run. On a healthy run the audit is trivially clean; a
// violation after recovery has quiesced means a fault-handling path lost,
// leaked, or corrupted data.
package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"slices"
	"strings"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// auditPrefix is the HDFS namespace scanned for job outputs: every workload
// stages its data under /bench/<KEY>/, with inputs in .../in and output
// directories whose names start with "out" (out, out-iterN, out-stateN).
const auditPrefix = "/bench/"

// AuditReport is the outcome of the post-run invariant audit, produced when
// Options.Audit is set. It is JSON-serializable so fault-run results can be
// cached and shrunk chaos schedules can pin expected values.
type AuditReport struct {
	// HDFSBlocks is the number of live blocks the replication audit scanned.
	HDFSBlocks int `json:"hdfs_blocks"`
	// HDFSViolations lists replication-audit failures: blocks below their
	// achievable replication target, blocks with zero live replicas, and
	// orphaned replica files (see hdfs.ReplicationAudit).
	HDFSViolations []string `json:"hdfs_violations,omitempty"`
	// LeakedSectors is the total allocator slack across every data volume:
	// sectors neither free nor owned by a live file. Nonzero means a
	// recovery path dropped a file without releasing its extents.
	LeakedSectors int64 `json:"leaked_sectors"`
	// DirtyPages counts dirty pages remaining after the end-of-run SyncAll
	// across the volumes that sync covers (live nodes, unfailed volumes).
	// Nonzero means writeback was lost or the sync barrier has a hole.
	DirtyPages int `json:"dirty_pages"`
	// OutputSums maps each job-output file to a canonical content checksum:
	// SHA-256 over its key/value pairs in sorted order, so two runs that
	// produced the same multiset of pairs hash identically even if faults
	// reordered reduce-side value arrival.
	OutputSums map[string]string `json:"output_sums"`
	// Unreadable lists output files whose bytes could not be read back for
	// reasons other than structured data loss — a data-loss oracle failure
	// even when the NameNode's metadata looks consistent.
	Unreadable []string `json:"unreadable,omitempty"`
	// DataLoss holds the structured form of read-back failures that named
	// their lost blocks (hdfs.DataLossError): which path, which block IDs,
	// and the replication target the file asked for. Want==1 losses after a
	// crash are physics, not a bug — the chaos harness classifies them as
	// expected for replication-factor-1 outputs.
	DataLoss []DataLossRecord `json:"data_loss,omitempty"`
	// BadChunks lists stored replicas whose bytes fail the end-to-end
	// checksums at audit time (hdfs.ReplicationAudit.BadChunks). Empty
	// unless integrity is enabled; nonzero means corruption survived
	// read-repair and scrub.
	BadChunks []string `json:"bad_chunks,omitempty"`
}

// DataLossRecord is one output file that could not be served because every
// replica of one or more blocks is unreachable.
type DataLossRecord struct {
	Path   string  `json:"path"`
	Blocks []int64 `json:"blocks"`
	Want   int     `json:"want"` // the file's replication target
}

func (d DataLossRecord) String() string {
	return fmt.Sprintf("%s: blocks %v unreachable (replication target %d)", d.Path, d.Blocks, d.Want)
}

// Violations renders every invariant failure in the report as a
// human-readable finding. Output checksums are not judged here — they only
// mean something relative to a golden run, which is the chaos harness's job.
func (a *AuditReport) Violations() []string {
	var v []string
	for _, h := range a.HDFSViolations {
		v = append(v, "hdfs: "+h)
	}
	if a.LeakedSectors != 0 {
		v = append(v, fmt.Sprintf("localfs: %d sectors leaked (allocated but owned by no file)", a.LeakedSectors))
	}
	if a.DirtyPages != 0 {
		v = append(v, fmt.Sprintf("pagecache: %d dirty pages after final sync", a.DirtyPages))
	}
	for _, u := range a.Unreadable {
		v = append(v, "output unreadable: "+u)
	}
	for _, d := range a.DataLoss {
		v = append(v, "data loss: "+d.String())
	}
	for _, b := range a.BadChunks {
		v = append(v, "bad chunks: "+b)
	}
	return v
}

// Clean reports whether the audit found no invariant violations.
func (a *AuditReport) Clean() bool { return len(a.Violations()) == 0 }

// auditRun computes the report in simulation context, after monitoring has
// stopped: the invariant checks are pure, and the output read-back only
// spends virtual time outside the measured window.
func auditRun(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) *AuditReport {
	a := &AuditReport{OutputSums: make(map[string]string)}

	ra := fs.AuditReplication()
	a.HDFSBlocks = ra.Blocks
	for _, s := range ra.LostBlocks {
		a.HDFSViolations = append(a.HDFSViolations, "lost "+s)
	}
	for _, s := range ra.UnderReplicated {
		a.HDFSViolations = append(a.HDFSViolations, "under-replicated "+s)
	}
	for _, s := range ra.Orphans {
		a.HDFSViolations = append(a.HDFSViolations, "orphan "+s)
	}
	a.BadChunks = ra.BadChunks

	// Allocator accounting holds on every volume — failed or not, dead node
	// or not — because Fail() freezes a volume without disturbing its file
	// table. Dirty pages are only an invariant where SyncAll reaches: a dead
	// node's or failed volume's cache legitimately holds unwritten data,
	// exactly as powered-off hardware would. The master's metadata volumes
	// (present only under master recovery) are held to the same standard:
	// journal rolls must not leak extents, and the logs' Flush plus SyncAll
	// must have left nothing dirty.
	for _, n := range slices.Concat(cl.Slaves, []*cluster.Node{cl.Master}) {
		for _, v := range n.Vols {
			a.LeakedSectors += v.LeakedExtents()
			if n.Alive() && !v.Failed() {
				a.DirtyPages += v.Cache().DirtyPages()
			}
		}
	}

	s := newKVSummer(make([]byte, 0, hashBatch)) // reset for every file, keeping its arrays
	for _, path := range fs.List(auditPrefix) {
		if !isOutputPath(path) {
			continue
		}
		r, err := fs.Open(path, cl.Master.Name)
		if err != nil {
			a.noteReadFailure(path, err)
			continue
		}
		s.reset()
		if err := r.ReadBlocks(p, s.write); err != nil {
			a.noteReadFailure(path, err)
			continue
		}
		sum, err := s.sum()
		if err != nil {
			a.noteReadFailure(path, err)
			continue
		}
		a.OutputSums[path] = sum
	}
	return a
}

// noteReadFailure files an output read-back failure under DataLoss when the
// error names its lost blocks, and under Unreadable otherwise.
func (a *AuditReport) noteReadFailure(path string, err error) {
	var dl *hdfs.DataLossError
	if errors.As(err, &dl) {
		a.DataLoss = append(a.DataLoss, DataLossRecord{Path: path, Blocks: dl.Blocks, Want: dl.Want})
		return
	}
	a.Unreadable = append(a.Unreadable, fmt.Sprintf("%s: %v", path, err))
}

// isOutputPath reports whether an HDFS path is a job-output file: under the
// bench namespace, inside a directory whose name starts with "out" (the
// final output plus any per-iteration outputs a workload keeps).
func isOutputPath(path string) bool {
	rest := strings.TrimPrefix(path, auditPrefix)
	if rest == path {
		return false
	}
	_, rest, ok := strings.Cut(rest, "/")
	if !ok {
		return false
	}
	dir, _, ok := strings.Cut(rest, "/")
	return ok && strings.HasPrefix(dir, "out")
}

// kvSummer computes an output file's canonical checksum from the file's
// blocks as hdfs.Reader.ReadBlocks delivers them: SHA-256 over the pairs as
// a (key, value)-sorted multiset, each field behind its length. Reduce
// outputs are key-sorted already, but one key's values can arrive (and be
// emitted) in any order, under faults or from an identity reducer. So the
// summer gathers one key group at a time as views of the blocks (only a pair
// that straddles blocks is copied; the file is never assembled), sorts its
// values if they came out of order, and hashes it when the key changes. The
// blocks are remembered for a stream whose keys go backwards alone (they are
// views of bytes the DataNodes hold anyway): sum then gathers, sorts and
// hashes them afresh. Pairs reach the hash in batches, framed in buf, which
// is written when the next pair would not fit and by sum; a pair larger than
// buf is hashed as is. Unlike mapred.NextKV, which trusts its input, the
// summer reports a stream that ends inside a pair instead of indexing past it.
type kvSummer struct {
	h        hash.Hash
	buf      []byte   // framed pairs not yet written to h
	key      []byte   // the key of the group being gathered
	vals     [][]byte // its values in stream order; empty before the first pair
	shuffled bool     // vals are out of order
	unsorted bool     // a key went backwards
	blocks   [][]byte
	carry    []byte // the copied head of a pair that straddles blocks
	off      int64  // stream offset of the first pair not yet decoded
}

// hashBatch is the capacity of the scratch array a summer batches into.
const hashBatch = 8 << 10

// newKVSummer returns a summer that owns scratch's array until sum returns.
func newKVSummer(scratch []byte) *kvSummer { return &kvSummer{h: sha256.New(), buf: scratch[:0]} }

// reset readies the summer for another stream; the batch and group arrays
// are kept for it.
func (s *kvSummer) reset() {
	s.h.Reset()
	*s = kvSummer{h: s.h, buf: s.buf[:0], vals: s.vals[:0]}
}

// write takes the next block of the stream, which the summer keeps.
func (s *kvSummer) write(block []byte) error {
	s.blocks = append(s.blocks, block)
	for len(block) > 0 {
		d := block
		if len(s.carry) > 0 {
			// Extend the copied head by what it is known to lack.
			_, _, _, short := splitKV(s.carry)
			short = min(short, len(block))
			s.carry, block = append(s.carry, block[:short]...), block[short:]
			d = s.carry
		}
		k, v, n, short := splitKV(d)
		if n == 0 {
			if short == 0 {
				return fmt.Errorf("corrupt KV stream at offset %d", s.off)
			}
			if len(s.carry) == 0 {
				s.carry, block = append(s.carry, block...), nil
			}
			continue // the rest of the pair is in the next block
		}
		if len(s.carry) > 0 {
			s.carry = nil // not reused: the group may hold views of it
		} else {
			block = block[n:]
		}
		s.off += int64(n)
		if s.unsorted {
			continue // only decoding now, so that a truncated tail is still found
		}
		switch c := bytes.Compare(s.key, k); {
		case len(s.vals) == 0: // the first pair
		case c > 0:
			s.unsorted = true
			continue
		case c < 0:
			s.hashGroup()
		default:
			s.shuffled = s.shuffled || bytes.Compare(s.vals[len(s.vals)-1], v) > 0
		}
		s.key, s.vals = k, append(s.vals, v)
	}
	return nil
}

// hashGroup hashes the gathered key group in value order and empties it.
func (s *kvSummer) hashGroup() {
	if s.shuffled {
		slices.SortFunc(s.vals, compareFields)
		s.shuffled = false
	}
	for _, v := range s.vals {
		s.hash(s.key, v)
	}
	s.vals = s.vals[:0]
}

func (s *kvSummer) hash(k, v []byte) {
	n := 16 + len(k) + len(v)
	if len(s.buf)+n > cap(s.buf) {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
		if n > cap(s.buf) {
			s.h.Write(binary.LittleEndian.AppendUint64(s.buf, uint64(len(k))))
			s.h.Write(k)
			s.h.Write(binary.LittleEndian.AppendUint64(s.buf, uint64(len(v))))
			s.h.Write(v)
			return
		}
	}
	s.buf = append(binary.LittleEndian.AppendUint64(s.buf, uint64(len(k))), k...)
	s.buf = append(binary.LittleEndian.AppendUint64(s.buf, uint64(len(v))), v...)
}

// sum returns the checksum of the stream written.
func (s *kvSummer) sum() (string, error) {
	if len(s.carry) > 0 {
		return "", fmt.Errorf("truncated KV stream at offset %d", s.off)
	}
	s.hashGroup() // the last group; hashed afresh below if a key went backwards
	if s.unsorted {
		// A field's first 8 bytes as a zero-padded big-endian word
		// (mapred.KeyPrefix) order two fields whenever the words differ, so
		// bytes.Compare runs only on a tie.
		type pair struct {
			kp, vp uint64
			k, v   []byte
		}
		data, n := bytes.Join(s.blocks, nil), 0
		for d := data; len(d) > 0; n++ {
			_, _, l, _ := splitKV(d) // write has checked the framing
			d = d[l:]
		}
		pairs := make([]pair, n)
		for i, d := 0, data; i < n; i++ {
			k, v, l, _ := splitKV(d)
			pairs[i] = pair{mapred.KeyPrefix(k), mapred.KeyPrefix(v), k, v}
			d = d[l:]
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			if a.kp != b.kp {
				return cmp.Compare(a.kp, b.kp)
			}
			if c := bytes.Compare(a.k, b.k); c != 0 {
				return c
			}
			if a.vp != b.vp {
				return cmp.Compare(a.vp, b.vp)
			}
			return bytes.Compare(a.v, b.v)
		})
		s.h.Reset()
		s.buf = s.buf[:0]
		for _, pr := range pairs {
			s.hash(pr.k, pr.v)
		}
	}
	s.h.Write(s.buf)
	return hex.EncodeToString(s.h.Sum(nil)), nil
}

// compareFields orders two fields as bytes.Compare does. Their first eight
// bytes as a big-endian word (mapred.KeyPrefix of a field that long) order
// them whenever the words differ, so bytes.Compare runs only on a tie or a
// shorter field.
func compareFields(a, b []byte) int {
	if len(a) >= 8 && len(b) >= 8 {
		if pa, pb := binary.BigEndian.Uint64(a), binary.BigEndian.Uint64(b); pa != pb {
			return cmp.Compare(pa, pb)
		}
	}
	return bytes.Compare(a, b)
}

// splitKV decodes the pair at the head of d; n > 0 is its wire length. When d
// ends inside the pair n is 0 and short is how many more bytes the pair is
// known to need; both are 0 when a length is not a uvarint at all. Lengths
// are compared as uint64: they come from the stream, and an int sum can wrap.
func splitKV(d []byte) (k, v []byte, n, short int) {
	var f [2][]byte
	for i := range f {
		l, h := binary.Uvarint(d[n:])
		switch left := uint64(len(d) - n - h); {
		case h < 0:
			return nil, nil, 0, 0
		case h == 0:
			return nil, nil, 0, 1
		case left < l:
			return nil, nil, 0, int(min(l-left, math.MaxInt32))
		}
		f[i] = d[n+h : n+h+int(l)]
		n += h + int(l)
	}
	return f[0], f[1], n, 0
}
