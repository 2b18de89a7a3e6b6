// Package hdfs simulates the Hadoop Distributed File System as deployed on
// the paper's testbed: a NameNode holding the namespace and block map, one
// DataNode per slave storing 64 MB blocks (scaled) on the node's three
// dedicated HDFS disks, three-way replication with a write pipeline over
// the network, and streaming readers that prefer the local replica.
//
// Real bytes flow end to end: a block's content is stored in the DataNode's
// local filesystem and returned verbatim to readers, while every access is
// timed through the page-cache and disk models. HDFS's signature I/O
// pattern — large sequential block reads and writes — therefore emerges
// from the same mechanics the paper measured rather than being asserted.
package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/netsim"
	"iochar/internal/sim"
)

// Replication is the filesystem's default replication factor, Hadoop
// 1.0.4's dfs.replication.
const Replication = 3

// Config holds filesystem-wide parameters.
type Config struct {
	BlockSize int64 // bytes; the paper's Hadoop 1.0.4 default is 64 MB

	// Seed feeds the jitter rng of the clients' sim.NewRetry stalls across
	// transient network faults; healthy runs never draw from it.
	Seed int64
}

// DefaultConfig returns Hadoop 1.0.4 defaults scaled by the divisor.
func DefaultConfig(scale int64) Config {
	if scale <= 0 {
		scale = 1
	}
	bs := (64 << 20) / scale
	if bs < 16<<10 {
		bs = 16 << 10
	}
	return Config{BlockSize: bs}
}

// blockMeta is the NameNode's view of one block.
type blockMeta struct {
	id       int64
	size     int64
	want     int // target replication factor
	replicas []*DataNode
	// landed lists every DataNode that physically stored the replica,
	// including pipeline hops whose client died before acking them into
	// replicas. Delete consults it so an abandoned write cannot strand a
	// replica file on a live node.
	landed []*DataNode
	gone   bool // file deleted; drop from recovery queues
	// sums holds the per-chunk CRC32C checksums of the block's true content,
	// computed from the writer's bytes (the end-to-end property: the client's
	// checksum travels with the block). Nil unless integrity is enabled, and
	// for a generated block until a replica first needs them: lazySums makes
	// them from the source, which holds the true content whatever happens
	// to a replica, and an untouched replica is clean on the memo alone.
	sums     []uint32
	lazySums func() []uint32
	// verified is the stored run (an array, or a generated range) whose
	// first size bytes are known to match sums; every replica shares it
	// (see replicaClean).
	verified localfs.Origin
}

// checked is whether b carries end-to-end sums, made or still to be made.
func (b *blockMeta) checked() bool { return b.sums != nil || b.lazySums != nil }

// checksums returns b's sums, making them first if they are lazy.
func (b *blockMeta) checksums() []uint32 {
	if b.lazySums != nil {
		b.sums, b.lazySums = b.lazySums(), nil
	}
	return b.sums
}

// fileMeta is one namespace entry.
type fileMeta struct {
	name   string
	size   int64
	blocks []*blockMeta
	open   bool // being written
}

// FS is the filesystem: NameNode state plus its DataNodes.
type FS struct {
	env        *sim.Env
	cfg        Config
	net        *netsim.Network
	masterNode string // node hosting the NameNode ("" = topology-blind RPCs)
	netRng     *rand.Rand
	files      map[string]*fileMeta
	datanodes  []*DataNode
	byNode     map[string]*DataNode
	blockByID  map[int64]*blockMeta
	nextBlock  int64
	place      int            // round-robin placement cursor
	rec        *recoveryState // nil unless EnableRecovery was called
	stats      RecoveryStats  // repair work, counted whether or not rec is set
	integrity  bool           // per-chunk checksums verified on every read
	scrub      *scrubState    // nil unless EnableScrubber was called
	master     *masterState   // nil unless EnableMaster was called
	// staging holds emptied block-capacity buffers that closed Writers gave
	// back, for the next Writer to fill (see Writer.Close).
	staging [][]byte
}

// storedBlock is one replica as held by a DataNode: the block file plus the
// volume it lives on (so a failed volume can report exactly its blocks).
type storedBlock struct {
	file *localfs.File
	vol  *localfs.FS
}

// DataNode serves blocks from one slave's HDFS volumes.
type DataNode struct {
	node     *cluster.Node
	blocks   map[int64]storedBlock
	crashed  bool          // fail-stopped; stops serving and heartbeating
	lastBeat time.Duration // last heartbeat the NameNode saw
	deadByNN bool          // the NameNode has declared this node dead
	beatGen  int           // heartbeat process generation (bumped per restart)
}

// New creates the filesystem with a DataNode on every given node.
func New(env *sim.Env, cfg Config, net *netsim.Network, nodes []*cluster.Node) *FS {
	if cfg.BlockSize <= 0 {
		panic("hdfs: invalid config")
	}
	fs := &FS{
		env:       env,
		cfg:       cfg,
		net:       net,
		netRng:    rand.New(rand.NewSource(cfg.Seed ^ 0x4e455453)),
		files:     make(map[string]*fileMeta),
		byNode:    make(map[string]*DataNode),
		blockByID: make(map[int64]*blockMeta),
	}
	for _, n := range nodes {
		if len(n.HDFSVols) == 0 {
			panic("hdfs: node " + n.Name + " has no HDFS volumes")
		}
		dn := &DataNode{node: n, blocks: make(map[int64]storedBlock)}
		fs.datanodes = append(fs.datanodes, dn)
		fs.byNode[n.Name] = dn
	}
	if len(fs.datanodes) < Replication {
		panic("hdfs: fewer datanodes than the replication factor")
	}
	return fs
}

// Config returns the filesystem configuration.
func (fs *FS) Config() Config { return fs.cfg }

// SetMasterNode names the node hosting the NameNode, so client RPCs and
// DataNode heartbeats become partition-aware: a client cut off from the
// master stalls with backoff like a client of a crashed master, and a
// DataNode cut off stops being heard. Empty (the default) keeps RPCs
// topology-blind.
func (fs *FS) SetMasterNode(name string) { fs.masterNode = name }

// netBlocked reports whether any live DataNode is currently unreachable
// from the client — the signal that an empty placement is a transient
// topology problem worth waiting out rather than a dead cluster.
func (fs *FS) netBlocked(client string) bool {
	for _, dn := range fs.datanodes {
		if !dn.crashed && !fs.net.Reachable(client, dn.node.Name) {
			return true
		}
	}
	return false
}

// netStall spends one stall of an operation's budget for transient network
// failures, charging the recovery stats; false means the budget is spent.
func (fs *FS) netStall(p *sim.Proc, retry *sim.Retry) bool {
	d, ok := retry.Stall(p)
	if ok {
		fs.stats.NetStalls++
		fs.stats.NetStallTime += d
	}
	return ok
}

// waitMasterFrom is waitMaster for a client on a known node: after the
// usual crash/safe-mode stall it also waits out a partition separating the
// client from the master's node, with the same backoff discipline — a
// partitioned-off client behaves like a client of a bounced master. The
// stall is bounded by the net-retry budget so a client on a permanently
// dead node cannot spin the simulation forever.
func (fs *FS) waitMasterFrom(p *sim.Proc, mutating bool, node string) {
	fs.waitMaster(p, mutating)
	if node == "" || fs.masterNode == "" || fs.net.Reachable(node, fs.masterNode) {
		return
	}
	retry := sim.NewRetry(fs.netRng)
	for !fs.net.Reachable(node, fs.masterNode) && fs.netStall(p, &retry) {
	}
	// The master may have bounced while we were cut off.
	fs.waitMaster(p, mutating)
}

// Exists reports whether the path exists.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// Size returns a path's length in bytes, or -1 if absent.
func (fs *FS) Size(path string) int64 {
	f, ok := fs.files[path]
	if !ok {
		return -1
	}
	return f.size
}

// List returns paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	var out []string
	for name := range fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a path and frees its block replicas.
func (fs *FS) Delete(path string) error {
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("hdfs: delete %s: no such file", path)
	}
	for _, b := range f.blocks {
		b.gone = true
		delete(fs.blockByID, b.id)
		for _, dn := range append(append([]*DataNode{}, b.replicas...), b.landed...) {
			sb, ok := dn.blocks[b.id]
			if !ok {
				continue
			}
			delete(dn.blocks, b.id)
			sb.vol.Delete(sb.file.Name())
		}
	}
	delete(fs.files, path)
	fs.releaseLease(path)
	fs.journalEdit(editRec{op: opDelete, path: path})
	return nil
}

// BlockLocations returns, per block of the file, the node names holding a
// replica — the scheduler's locality input.
func (fs *FS) BlockLocations(path string) ([][]string, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: locations %s: no such file", path)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		for _, dn := range b.replicas {
			out[i] = append(out[i], dn.node.Name)
		}
	}
	return out, nil
}

// choose picks replication replica targets by Hadoop's default rack-aware
// placement: first replica on the writer's node (or its rack), the second
// and third on one common remote rack, spilling anywhere eligible when a
// rack runs short, all from one round-robin cursor so the choice is
// deterministic. The paper's flat fabric is the one-rack case: every scan
// for a remote rack comes up empty and leaves the cursor where it was
// (mod the DataNode count), so placement degenerates to the writer's own
// DataNode first, then round-robin across the rest. Crashed and — under
// network faults — unreachable DataNodes are excluded at allocation; if
// fewer eligible nodes exist than the requested factor, every eligible node
// is returned (nil when none are left).
func (fs *FS) choose(writer string, replication int) []*DataNode {
	elig := func(dn *DataNode) bool {
		return !dn.crashed && fs.net.Reachable(writer, dn.node.Name)
	}
	live := 0
	for _, dn := range fs.datanodes {
		if elig(dn) {
			live++
		}
	}
	if replication > live {
		replication = live
	}
	var out []*DataNode
	has := func(dn *DataNode) bool {
		for _, have := range out {
			if have == dn {
				return true
			}
		}
		return false
	}
	pick := func(want func(*DataNode) bool) *DataNode {
		for range fs.datanodes {
			dn := fs.datanodes[fs.place%len(fs.datanodes)]
			fs.place++
			if !elig(dn) || has(dn) || !want(dn) {
				continue
			}
			return dn
		}
		return nil
	}
	localRack := -1
	if dn, ok := fs.byNode[writer]; ok && elig(dn) {
		out = append(out, dn)
		localRack = dn.node.Rack
	} else {
		localRack = fs.net.RackOf(writer)
	}
	remoteRack := -1
	for len(out) < replication {
		var dn *DataNode
		if remoteRack < 0 {
			if dn = pick(func(d *DataNode) bool { return d.node.Rack != localRack }); dn != nil {
				remoteRack = dn.node.Rack
			}
		} else {
			dn = pick(func(d *DataNode) bool { return d.node.Rack == remoteRack })
		}
		if dn == nil {
			dn = pick(func(*DataNode) bool { return true })
		}
		if dn == nil {
			break
		}
		out = append(out, dn)
	}
	return out
}

// Writer streams data into a new file, building each block in a
// block-capacity buffer from the FS's staging stack (see flushBlock and Close).
type Writer struct {
	fs          *FS
	meta        *fileMeta
	client      string // node name of the writing client
	replication int
	buf         []byte // the block being filled; nil until the next byte arrives
	err         error  // sticky: why Write and Close are refused from now on
}

// CreateWith opens a new file for writing from the given client node with
// an explicit replication factor, as Hadoop's per-file dfs.replication does
// (TeraSort conventionally writes its output with replication 1); 0 selects
// the filesystem's default. An existing path is replaced, as "hadoop fs -rm
// && rewrite" would.
func (fs *FS) CreateWith(path, clientNode string, replication int) *Writer {
	if replication <= 0 || replication > len(fs.datanodes) {
		replication = Replication
	}
	if fs.Exists(path) {
		fs.Delete(path)
	}
	meta := &fileMeta{name: path, open: true}
	fs.files[path] = meta
	fs.journalEdit(editRec{op: opCreate, path: path, repl: replication})
	fs.grantLease(path, clientNode)
	return &Writer{fs: fs, meta: meta, client: clientNode, replication: replication}
}

// Write appends a copy of data to the stream, blocking p while full blocks
// flush through the replication pipeline. It returns an error when a block
// cannot be stored on any live DataNode — the file then has a hole, and
// every later Write or Close returns that error again.
func (w *Writer) Write(p *sim.Proc, data []byte) error {
	bs := int(w.fs.cfg.BlockSize)
	for len(data) > 0 && w.err == nil {
		if w.buf == nil {
			if k := len(w.fs.staging) - 1; k >= 0 {
				w.buf, w.fs.staging = w.fs.staging[k], w.fs.staging[:k]
			} else {
				w.buf = make([]byte, 0, bs)
			}
		}
		n := min(len(data), bs-len(w.buf))
		w.buf = append(w.buf, data[:n]...)
		data = data[n:]
		if len(w.buf) == bs {
			w.err = w.flushBlock(p)
		}
	}
	return w.err
}

// Close flushes the final partial block and seals the file. A Writer is
// closed once: afterwards Write and Close are refused.
func (w *Writer) Close(p *sim.Proc) error {
	if len(w.buf) > 0 && w.err == nil {
		// The DataNodes keep the tail's array for as long as the block lives,
		// so it is stored trimmed to fit, and the block-capacity buffer goes
		// back on the stack for the next Writer.
		staged := w.buf
		w.buf = bytes.Clone(staged)
		w.fs.staging = append(w.fs.staging, staged[:0])
		w.err = w.flushBlock(p)
	}
	if w.err != nil {
		return w.err
	}
	// Sealing is a NameNode RPC: it stalls while the master is down or
	// holding mutations in safe mode — or while the client is partitioned
	// away from it.
	w.fs.waitMasterFrom(p, true, w.client)
	w.meta.open = false
	w.fs.journalEdit(editRec{op: opClose, path: w.meta.name})
	w.fs.releaseLease(w.meta.name)
	w.err = fmt.Errorf("hdfs: write to closed file %s", w.meta.name)
	return nil
}

// flushBlock ships w.buf as one block through the write pipeline, and the
// DataNodes keep it: every replica stores that one array, as after Load, and
// the Writer starts the next block in another buffer. The client streams
// packets to the first replica, which relays downstream, every replica
// appending to its local block file concurrently. The hops run in parallel
// processes, so pipeline time approximates max(hop) rather than sum(hop),
// as in HDFS.
//
// Under fault injection a hop can fail (its target crashed, or the network
// path collapsed mid-transfer). As in HDFS pipeline recovery, the block
// survives on whichever replicas completed — the under-replication is
// queued for background repair. Only when *no* replica lands does the
// client retry the whole block against a fresh pipeline, and after
// maxPipelineRetries such attempts the write fails for good. Transient
// network failures (a partition, a lossy link) are different: they heal on
// a schedule, so the client stalls with backoff under the generous
// net-retry budget instead of burning pipeline attempts.
func (w *Writer) flushBlock(p *sim.Proc) error {
	const maxPipelineRetries = 3
	fs := w.fs
	data := w.buf
	w.buf = nil
	// Allocating a block is a NameNode RPC: it stalls while the master is
	// down or holding mutations in safe mode, with backoff+jitter retries.
	fs.waitMasterFrom(p, true, w.client)
	id := fs.nextBlock
	fs.nextBlock++
	b := &blockMeta{id: id, size: int64(len(data)), want: w.replication}
	w.meta.blocks = append(w.meta.blocks, b)
	w.meta.size += b.size
	fs.blockByID[id] = b
	fs.journalEdit(editRec{op: opAddBlock, path: w.meta.name, block: id, size: b.size, repl: b.want})
	fs.renewLease(w.meta.name, p.Now())

	if fs.integrity {
		b.sums, b.verified = chunkSums(data), localfs.ArrayOrigin(data)
	}
	retry := sim.NewRetry(fs.netRng)
	for attempt := 0; attempt < maxPipelineRetries; {
		targets := fs.choose(w.client, w.replication)
		if len(targets) == 0 {
			// No eligible target. If live DataNodes exist on the far side of
			// a partition, this is transient: wait out the heal.
			if fs.netBlocked(w.client) && fs.netStall(p, &retry) {
				continue
			}
			return fmt.Errorf("hdfs: write %s block %d: no live datanodes", w.meta.name, id)
		}
		ok := make([]bool, len(targets))
		errs := make([]error, len(targets))
		var hops []*sim.Handle
		prev := w.client
		for i, dn := range targets {
			i, dn := i, dn
			src := prev
			hops = append(hops, fs.env.Go("pipeline", func(hp *sim.Proc) {
				if err := fs.net.TryTransfer(hp, src, dn.node.Name, b.size); err != nil {
					errs[i] = err
					return
				}
				if dn.crashed {
					return
				}
				f := dn.node.NextHDFSVol().Create(blockFileName(id))
				f.SetStage(disk.StageHDFS)
				f.Append(hp, data)
				if dn.crashed {
					// Crashed while appending: bytes are on a dead node.
					return
				}
				if b.gone || f.FS().Failed() {
					// The file was deleted mid-append (the writer died and a
					// re-executed attempt already replaced its output), or the
					// volume fail-stopped while the bytes were landing — its
					// replica sweep cannot have seen this still-uncredited
					// block; keep the stray bytes off the DataNode.
					f.FS().Delete(f.Name())
					return
				}
				dn.blocks[id] = storedBlock{file: f, vol: f.FS()}
				b.landed = append(b.landed, dn)
				ok[i] = true
			}))
			prev = dn.node.Name
		}
		for _, h := range hops {
			h.Wait(p)
		}
		for i, dn := range targets {
			// A hop that finished before its node crashed — or whose stored
			// copy a volume-failure sweep has since deleted — must not be
			// credited: the NameNode's failure handling has already run (it
			// saw an empty replica list for this still-open block), so a
			// credit now would stand forever and the block would close
			// "fully replicated" with one replica on a corpse.
			if _, stored := dn.blocks[id]; ok[i] && !dn.crashed && stored {
				b.replicas = append(b.replicas, dn)
			}
		}
		if len(b.replicas) > 0 {
			if len(b.replicas) < b.want {
				fs.enqueueUnderReplicated(b)
			}
			if attempt > 0 {
				fs.stats.PipelineRetries += uint64(attempt)
			}
			return nil
		}
		// Nothing landed. A hop severed by a transient fault is worth a
		// backoff stall that does not consume a pipeline attempt; anything
		// else (crashed targets, failed volumes) burns one.
		transient := false
		for _, err := range errs {
			if err != nil && errors.Is(err, netsim.ErrTransient) {
				transient = true
				break
			}
		}
		if transient && fs.netStall(p, &retry) {
			continue
		}
		attempt++
	}
	return fmt.Errorf("hdfs: write %s block %d: pipeline failed %d times", w.meta.name, id, maxPipelineRetries)
}

func blockFileName(id int64) string { return fmt.Sprintf("blk_%d", id) }

// Load installs a file's content instantly (no virtual time, cold caches),
// for experiment setup. Placement starts each file's pipeline at a caller-
// chosen node so datasets spread evenly; the usual replica policy applies.
// A block's replicas keep data's own bytes, uncopied.
func (fs *FS) Load(path string, firstNode string, data []byte) {
	fs.load(path, firstNode, int64(len(data)),
		func(lo, hi int64) func(*localfs.File) { return func(f *localfs.File) { f.Install(data[lo:hi]) } },
		func(b *blockMeta, lo, hi int64) { b.sums = chunkSums(data[lo:hi]) })
}

// LoadSource is Load for size bytes made where they are read: every
// replica of a block keeps the block's range of src and none of its bytes,
// and all of them read through src. A map's read that runs a record into the
// next block then meets the place that made its own block, and the next
// block's map can go on from there, whichever replicas serve them. src must
// belong to this FS's testbed alone (see localfs.Source). With integrity on,
// a block's sums are made from src only when a replica that is no longer the
// untouched range needs them.
func (fs *FS) LoadSource(path, firstNode string, src localfs.Source, size int64) {
	fs.load(path, firstNode, size,
		func(lo, hi int64) func(*localfs.File) {
			return func(f *localfs.File) { f.InstallSource(src, lo, hi-lo) }
		},
		func(b *blockMeta, lo, hi int64) {
			b.lazySums = func() []uint32 { return chunkSums(src.AppendTo(nil, lo, hi)) }
		})
}

// load is Load and LoadSource: block returns what puts bytes [lo, hi) of
// the file on each replica of the block holding them, and sum gives that
// block its checksums.
func (fs *FS) load(path, firstNode string, size int64, block func(lo, hi int64) func(*localfs.File), sum func(b *blockMeta, lo, hi int64)) {
	if fs.Exists(path) {
		fs.Delete(path)
	}
	meta := &fileMeta{name: path}
	fs.files[path] = meta
	fs.journalEdit(editRec{op: opCreate, path: path, repl: Replication})
	for off := int64(0); off < size; off += fs.cfg.BlockSize {
		end := min(off+fs.cfg.BlockSize, size)
		id := fs.nextBlock
		fs.nextBlock++
		replicas := fs.choose(firstNode, Replication)
		b := &blockMeta{id: id, size: end - off, want: Replication, replicas: replicas}
		if fs.integrity {
			sum(b, off, end)
		}
		meta.blocks = append(meta.blocks, b)
		meta.size += b.size
		fs.blockByID[id] = b
		fs.journalEdit(editRec{op: opAddBlock, path: path, block: id, size: b.size, repl: b.want})
		install := block(off, end)
		for _, dn := range replicas {
			f := dn.node.NextHDFSVol().Create(blockFileName(id))
			f.SetStage(disk.StageHDFS)
			install(f)
			dn.blocks[id] = storedBlock{file: f, vol: f.FS()}
			if fs.integrity {
				b.verified = f.FS().Origin(f.Name())
			}
		}
	}
	fs.journalEdit(editRec{op: opClose, path: path})
}

// Reader reads a file on behalf of one client node: ReadAt for a byte range,
// ReadBlocks for the whole file a block at a time without assembling it.
type Reader struct {
	fs     *FS
	meta   *fileMeta
	client string
}

// Open returns a reader for the path on behalf of a client node.
func (fs *FS) Open(path, clientNode string) (*Reader, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: open %s: no such file", path)
	}
	if f.open {
		return nil, fmt.Errorf("hdfs: open %s: file is being written", path)
	}
	return &Reader{fs: fs, meta: f, client: clientNode}, nil
}

// Size returns the file's length.
func (r *Reader) Size() int64 { return r.meta.size }

// ReadAt returns length bytes starting at off, blocking p for block reads
// (local replica preferred; remote replicas add a network transfer). Reads
// are clamped at EOF. It returns a *LostBlockError when every replica of
// some covered block is unreachable. A range inside one block comes back as
// the DataNode's read-only view of its block file (see localfs); only a
// range spanning blocks is assembled into a fresh slice, by ReadAppend.
func (r *Reader) ReadAt(p *sim.Proc, off, length int64) ([]byte, error) {
	// Locating blocks is a NameNode RPC: reads stall only while the master
	// is down (safe mode keeps the namespace readable) or while the client
	// is partitioned away from it.
	r.fs.waitMasterFrom(p, false, r.client)
	if off < 0 || off >= r.meta.size {
		return nil, nil
	}
	length = min(length, r.meta.size-off)
	var blockStart int64
	for _, b := range r.meta.blocks {
		if off < blockStart+b.size {
			if lo := off - blockStart; lo+length <= b.size {
				data, err := r.readBlockRange(p, b, lo, length, func(f *localfs.File) []byte { return f.ReadAt(p, lo, length) })
				if err != nil {
					return nil, r.lossOf(err)
				}
				return data, nil
			}
			break
		}
		blockStart += b.size
	}
	data, err := r.appendRange(p, make([]byte, 0, length), off, length)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ReadAppend is ReadAt into the caller's buffer: the same block reads,
// failover and transfers, with the bytes appended to dst, so a reader that
// frames records in a buffer of its own copies each byte once at most (a
// generated block is made where it lands). On an error dst comes back at
// its length on entry, without the blocks read before the one that failed.
func (r *Reader) ReadAppend(p *sim.Proc, dst []byte, off, length int64) ([]byte, error) {
	r.fs.waitMasterFrom(p, false, r.client)
	return r.appendRange(p, dst, off, length)
}

// appendRange is ReadAppend after the NameNode RPC.
func (r *Reader) appendRange(p *sim.Proc, dst []byte, off, length int64) ([]byte, error) {
	if off < 0 || off >= r.meta.size {
		return dst, nil
	}
	length = min(length, r.meta.size-off)
	n := len(dst) // what a failed read gives back
	var blockStart int64
	for _, b := range r.meta.blocks {
		blockEnd := blockStart + b.size
		if lo, hi := max(off, blockStart)-blockStart, min(off+length, blockEnd)-blockStart; lo < hi {
			data, err := r.readBlockRange(p, b, lo, hi-lo, func(f *localfs.File) []byte { return f.ReadAppend(p, dst, lo, hi-lo) })
			if err != nil {
				return dst[:n], r.lossOf(err)
			}
			dst = data
		}
		blockStart = blockEnd
		if blockStart >= off+length {
			break
		}
	}
	return dst, nil
}

// ReadBlocks reads the whole file and passes it to fn one block at a time,
// in order, stopping at the first error from either side. It costs what
// ReadAt(p, 0, Size()) costs — one NameNode RPC, then every block from its
// best replica with the same failover, integrity check and remote transfer —
// but each block reaches fn as the DataNode's read-only view of its block
// file (see localfs), so a caller that only folds the bytes into something
// smaller holds no copy of the file.
func (r *Reader) ReadBlocks(p *sim.Proc, fn func(block []byte) error) error {
	r.fs.waitMasterFrom(p, false, r.client)
	for _, b := range r.meta.blocks {
		data, err := r.readBlockRange(p, b, 0, b.size, func(f *localfs.File) []byte { return f.ReadAt(p, 0, b.size) })
		if err != nil {
			return r.lossOf(err)
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// lossOf widens a failed block read into the file's DataLossError when the
// block is gone for good.
func (r *Reader) lossOf(err error) error {
	if _, lost := err.(*LostBlockError); lost {
		if dle := r.fs.dataLoss(r.meta); dle != nil {
			return dle
		}
	}
	return err
}

// DataLossError reports that a file has lost data for good: the named
// blocks have no reachable replica anywhere. Want is the highest
// replication target among the lost blocks — Want == 1 identifies loss the
// user opted into by writing with replication 1 (TeraSort's conventional
// output setting), which a chaos oracle may classify as expected.
type DataLossError struct {
	Path   string
	Blocks []int64 // lost block IDs, ascending
	Want   int     // max replication target among the lost blocks
}

func (e *DataLossError) Error() string {
	return fmt.Sprintf("hdfs: data loss in %s: %d block(s) unreachable (replication target %d): %v",
		e.Path, len(e.Blocks), e.Want, e.Blocks)
}

// dataLoss scans every block of f and builds a DataLossError naming all the
// blocks with no readable replica, or nil if none qualify.
func (fs *FS) dataLoss(f *fileMeta) *DataLossError {
	var e *DataLossError
	for _, b := range f.blocks {
		readable := false
		for _, dn := range b.replicas {
			if dn.crashed {
				continue
			}
			if sb, ok := dn.blocks[b.id]; ok && !sb.vol.Failed() {
				readable = true
				break
			}
		}
		if readable {
			continue
		}
		if e == nil {
			e = &DataLossError{Path: f.name}
		}
		e.Blocks = append(e.Blocks, b.id)
		if b.want > e.Want {
			e.Want = b.want
		}
	}
	return e
}

// LostBlockError reports a block with no reachable replica.
type LostBlockError struct {
	Path  string
	Block int64
}

func (e *LostBlockError) Error() string {
	return fmt.Sprintf("hdfs: read %s: block %d has no reachable replica", e.Path, e.Block)
}

// readBlockRange reads [off, off+length) of one block from the best
// replica, taking the bytes with read from its block file: local if present (pure disk path), else the placement-order
// first remote (disk at the remote node + network transfer). Replicas on
// crashed DataNodes are skipped, and a remote transfer that collapses
// mid-stream (source crashed) fails the client over to the next replica —
// HDFS's DFSInputStream retry. When every failure was transient (replicas
// exist but are partitioned away, or a lossy link exhausted its
// retransmits) the client stalls with backoff and retries the candidate
// scan: the reachable-side replica policy means a heal — not a repair — is
// what brings the data back.
func (r *Reader) readBlockRange(p *sim.Proc, b *blockMeta, off, length int64, read func(*localfs.File) []byte) ([]byte, error) {
	retry := sim.NewRetry(r.fs.netRng)
	for {
		data, transient, err := r.readBlockOnce(p, b, off, length, read)
		if err == nil || !transient || !r.fs.netStall(p, &retry) {
			return data, err
		}
	}
}

// readBlockOnce makes one pass over the replica candidates. transient
// reports that at least one candidate failed for a reason that heals
// (partition, lossy link), so the caller may retry.
func (r *Reader) readBlockOnce(p *sim.Proc, b *blockMeta, off, length int64, read func(*localfs.File) []byte) (data []byte, transient bool, err error) {
	// Candidate order: local replica first, then placement order. A map
	// reads its split a chunk at a time through here, so the list stays on
	// the stack.
	var buf [Replication + 1]*DataNode
	cands := buf[:0]
	for _, dn := range b.replicas {
		if dn.node.Name == r.client {
			cands = append(cands, dn)
			break
		}
	}
	for _, dn := range b.replicas {
		if dn.node.Name != r.client {
			cands = append(cands, dn)
		}
	}
	for _, dn := range cands {
		if dn.crashed {
			continue
		}
		if dn.node.Name != r.client && !r.fs.net.Reachable(r.client, dn.node.Name) {
			// Partitioned away: don't even charge the remote disk read.
			transient = true
			continue
		}
		sb, ok := dn.blocks[b.id]
		if !ok || sb.vol.Failed() {
			continue
		}
		data := read(sb.file)
		if r.fs.integrity && !r.fs.verifyRange(b, sb, off, length) {
			// A chunk covering this range failed its CRC: strike the replica,
			// queue read-repair, and fail over to the next candidate — the
			// DFSClient's reportChecksumFailure path.
			r.fs.reportCorrupt(b, dn)
			continue
		}
		if dn.node.Name == r.client {
			return data, false, nil
		}
		if err := r.fs.net.TryTransfer(p, dn.node.Name, r.client, length); err != nil {
			if errors.Is(err, netsim.ErrTransient) {
				transient = true
			}
			r.fs.stats.ReadFailovers++
			continue
		}
		return data, false, nil
	}
	return nil, transient, &LostBlockError{Path: r.meta.name, Block: b.id}
}
