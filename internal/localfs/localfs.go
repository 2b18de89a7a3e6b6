// Package localfs implements the per-disk local filesystem used underneath
// both the HDFS datanode (block files) and the MapReduce runtime
// (intermediate spill/merge/shuffle files).
//
// It is an extent-allocating, append-write filesystem: file contents are
// real bytes held in memory (the correctness layer), while every access is
// translated to device sector ranges and pushed through the page cache to
// the modeled disk (the timing layer). When many writers grow files
// concurrently their extents interleave on the device — the natural origin
// of the fragmented, seek-heavy layout that makes MapReduce intermediate
// I/O "small and random" in the paper.
//
// # Who copies, who keeps
//
// A file's contents are an ordered list of immutable segments, and one rule
// governs every byte in them: once stored, a byte is never written again.
// HDFS relies on it: a replica stored in an array whose block already
// matched its checksums is not checksummed again.
//
//   - Nobody copies on the way in. Install keeps the caller's slice, clipped
//     to its length, as a segment: the caller gives the bytes up — it must
//     not write to them afterwards — and files given one slice (a block's
//     replicas; an input part on every testbed of a sweep) share its backing
//     array. Append is Install plus timing. A caller that reuses its buffer
//     clones it at the call site and says why; nothing here does it for them.
//   - A generated segment holds no bytes at all. InstallSource keeps a
//     Source and a range of it (a reader of a TeraGen part's snapshot
//     table and a block's offsets), and every read makes the bytes it
//     returns: ReadAt into a fresh slice, ReadAppend into the caller's (Scan
//     charges a read and makes nothing). What it makes is a pure function
//     of its description and never changes, so any number of files of one
//     testbed share one source (a loaded file's block replicas), which
//     goes on from where its last read ended; testbeds share the table
//     under their sources.
//   - A copy of a range to another file (HDFS re-replication) goes by
//     reference too: ReadContents returns the range's runs as of the read,
//     arrays and sources alike, and AppendContents keeps them, so a copy
//     of a generated range is still generated.
//   - Corrupt replaces each segment it touches with a flipped copy, so the
//     damage stays in the one file it was aimed at. A generated segment is
//     split around the range instead, and only the range is made and
//     flipped: the file's other bytes, and every other file sharing the
//     source, still read what the source makes.
//   - Crash truncation and ReadAt/Peek only re-slice. A range inside one
//     held segment is returned as a view whose capacity equals its length
//     (an append to it reallocates instead of reaching the file); a range
//     that spans segments, or is generated, is gathered into a fresh
//     slice. Either way the result is the file's bytes as of the call — a
//     later Corrupt, Crash or Delete does not change it — and callers must
//     treat it as read-only.
//   - ReadOnce lets go. It reads as ReadAt does and then drops the file's
//     own reference to every segment lying wholly inside the range, so the
//     bytes live exactly as long as the views handed out: a reader that is
//     the only one a range will ever have (a reducer fetching its partition
//     of a map output) does not leave a second, unreachable copy resident
//     until the file is deleted. Size, extents and cached pages stay — the
//     file still occupies its disk. Reading a let-go range again panics
//     rather than returning zeros: the caller's claim to be the last reader
//     was wrong, and invented bytes would surface as a wrong answer far
//     from the call that made the claim.
//   - Taking an array back. "Never written again" binds while a file holds
//     the bytes. A caller that gave a file its array may write to it again
//     once no file holds it — the file was deleted, or ReadOnce let the
//     range go — and the last view it handed out will not be read again.
//     MapReduce's run arrays come back so with compression off, and never
//     under a fault plan, where re-reads and crash truncation keep views
//     alive.
package localfs

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"iochar/internal/disk"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

// DefaultExtentSectors is the allocation granularity: 1 MiB extents.
const DefaultExtentSectors = 2048

// Stats counts filesystem-level activity.
type Stats struct {
	FilesCreated uint64
	BytesWritten uint64
	BytesRead    uint64
}

// extent is a contiguous run of device sectors.
type extent struct {
	sector  int64
	sectors int64
}

func (e extent) end() int64 { return e.sector + e.sectors }

// segment is one immutable run of a file's bytes, starting at file offset
// off: held in data, or made by the file's generated entry for it. It
// carries its length because data is nil for a generated segment and once
// a ReadOnce has let the bytes go.
type segment struct {
	off  int64
	n    int64
	data []byte
}

// generated is what makes a generated segment's bytes: the source and the
// offset of the segment's first byte in it. A file keeps these beside its
// segments only once it has one (most files never do, and a segment stays
// three words).
type generated struct {
	src Source
	at  int64
}

// Source is stored content made where it is read: a deterministic function
// of its description, so every file given one holds the description and
// none of its bytes (an input part generated on read; see the package
// comment).
type Source interface {
	// AppendTo appends the source's bytes [lo, hi) to dst. It may keep its
	// place between calls, so reads that go on where the last one ended are
	// the cheapest, and it is not safe for concurrent use: files of one
	// testbed may share one (a block's replicas do), testbeds running in
	// parallel may not.
	AppendTo(dst []byte, lo, hi int64) []byte
}

func (s segment) end() int64 { return s.off + s.n }

// file is an on-"disk" file: real contents plus its device extents.
type file struct {
	name string
	size int64
	segs []segment // contiguous from offset 0, none empty; see the package comment
	// gens is parallel to segs once a segment is generated, nil before:
	// most files never have one, and a pointer keeps their struct small.
	gens    *[]generated
	extents []extent
	alloced int64 // sectors allocated
	deleted bool
}

// FS is one disk's filesystem. Create with New.
type FS struct {
	cache   *pagecache.Cache
	d       *disk.Disk
	extSize int64

	files    map[string]*file
	free     []extent // sorted, coalesced free extents
	nextFree int64    // bump pointer past the highest allocation
	stats    Stats
	failed   bool // fail-stopped device (fault injection)

	journalRecs int64 // metadata journal records since mount (sizes remount replay)
}

// New creates a filesystem covering the whole device behind cache.
func New(d *disk.Disk, cache *pagecache.Cache) *FS {
	return &FS{
		cache:   cache,
		d:       d,
		extSize: DefaultExtentSectors,
		files:   make(map[string]*file),
	}
}

// SetExtentSectors overrides the allocation granularity (testing and
// fragmentation ablations).
func (fs *FS) SetExtentSectors(n int64) {
	if n <= 0 {
		panic("localfs: non-positive extent size")
	}
	fs.extSize = n
}

// Stats returns a copy of the counters.
func (fs *FS) Stats() Stats { return fs.stats }

// Cache returns the page cache backing this filesystem.
func (fs *FS) Cache() *pagecache.Cache { return fs.cache }

// Disk returns the device backing this filesystem.
func (fs *FS) Disk() *disk.Disk { return fs.d }

// Fail marks the device fail-stopped: its contents are considered lost and
// volume rotations skip it. Timing state is untouched — already-issued I/O
// completes, as a dying drive's in-flight requests do.
func (fs *FS) Fail() { fs.failed = true }

// Failed reports whether the device has fail-stopped.
func (fs *FS) Failed() bool { return fs.failed }

// Size returns the byte size of name, or -1 if absent.
func (fs *FS) Size(name string) int64 {
	f, ok := fs.files[name]
	if !ok {
		return -1
	}
	return f.size
}

// List returns all file names, sorted.
func (fs *FS) List() []string { return slices.Sorted(maps.Keys(fs.files)) }

// File is an open handle. Writers append; readers use ReadAt with a
// per-handle readahead state.
type File struct {
	fs    *FS
	f     *file
	rs    pagecache.ReadState
	stage disk.Stage
}

// SetStage tags this handle with the pipeline stage on whose behalf it does
// I/O. Subsequent Append and ReadAt calls carry the tag down to the physical
// requests they cause (including deferred writeback of the dirtied pages).
// The tag is per handle, not per file: a spill file re-read by the merge pass
// retags its handle rather than the data.
func (h *File) SetStage(s disk.Stage) { h.stage = s }

// Create creates an empty file and returns a handle. Creating an existing
// name truncates it (the MapReduce runtime never does; tests may).
func (fs *FS) Create(name string) *File {
	if old, ok := fs.files[name]; ok {
		fs.release(old)
	}
	f := &file{name: name}
	fs.files[name] = f
	fs.stats.FilesCreated++
	fs.journalRecs++
	return &File{fs: fs, f: f}
}

// Open returns a read handle, or an error if absent.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("localfs: open %s on %s: no such file", name, fs.d.P.Name)
	}
	return &File{fs: fs, f: f}, nil
}

// Delete removes a file: extents return to the free list and its cached
// pages are discarded without writeback — deleted intermediate data that
// never aged out of the cache produces no disk I/O at all.
func (fs *FS) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("localfs: delete %s on %s: no such file", name, fs.d.P.Name)
	}
	fs.release(f)
	delete(fs.files, name)
	fs.journalRecs++
	return nil
}

func (fs *FS) release(f *file) {
	f.deleted = true
	for _, e := range f.extents {
		fs.cache.Discard(e.sector, int(e.sectors))
		fs.freeExtent(e)
	}
	f.extents = nil
	f.segs, f.gens = nil, nil
}

// Name returns the file's name.
func (h *File) Name() string { return h.f.name }

// FS returns the filesystem holding this file.
func (h *File) FS() *FS { return h.fs }

// Size returns the current byte size.
func (h *File) Size() int64 { return h.f.size }

// Append writes data at the end of the file, blocking p for the page-cache
// work (which may throttle on the dirty ratio): Install, then the timing
// through cache and disk. The file keeps data itself, so the caller must not
// write to it afterwards — not even while Append blocks.
func (h *File) Append(p *sim.Proc, data []byte) {
	start := h.f.size
	h.Install(data)
	h.written(p, start)
}

// AppendContents is Append for what another file's ReadContents found: the
// file keeps its runs, arrays and sources alike, as Install keeps a slice.
func (h *File) AppendContents(p *sim.Proc, c Contents) {
	start := h.f.size
	for i, s := range c.segs {
		h.install(s, c.gens[i])
	}
	h.written(p, start)
}

// written is an append's timing: the counters, and the cache writes of the
// bytes from start to the end of the file.
func (h *File) written(p *sim.Proc, start int64) {
	n := h.f.size - start
	h.fs.stats.BytesWritten += uint64(n)
	var runs [2]extent
	for _, r := range h.f.sectorRanges(runs[:0], start, n) {
		h.fs.cache.Write(p, r.sector, int(r.sectors), h.stage)
	}
}

// Install appends data without charging any virtual time or touching the
// page cache — the bytes appear on disk, cold. It exists for experiment
// setup (loading input datasets), which the paper's measurements exclude.
// The file keeps data itself rather than a copy (the replicas of a loaded
// block share one array with the generator that made it), so the caller
// must not write to data afterwards.
func (h *File) Install(data []byte) {
	if len(data) > 0 {
		h.install(segment{n: int64(len(data)), data: data[:len(data):len(data)]}, generated{})
	}
}

// InstallSource is Install for n bytes of src from offset at on: the file
// keeps the description, and every read makes the bytes it returns.
func (h *File) InstallSource(src Source, at, n int64) {
	if n > 0 {
		h.install(segment{n: n}, generated{src: src, at: at})
	}
}

// install appends seg, already owned by the file and made by g if g has a
// source, and allocates its sectors.
func (h *File) install(seg segment, g generated) {
	f := h.f
	if f.deleted {
		panic("localfs: write to deleted file " + f.name)
	}
	if g.src != nil && f.gens == nil {
		gens := make([]generated, len(f.segs), len(f.segs)+1)
		f.gens = &gens
	}
	seg.off = f.size
	f.segs = append(f.segs, seg)
	if f.gens != nil {
		*f.gens = append(*f.gens, g)
	}
	f.size += seg.n
	needSectors := (h.f.size + disk.SectorSize - 1) / disk.SectorSize
	for h.f.alloced < needSectors {
		h.fs.grow(h.f, needSectors-h.f.alloced)
	}
}

// ReadAt returns length bytes from offset off, blocking p for the cache
// fetches. Short reads at EOF return the available suffix. The content is
// pinned before blocking: if the file is deleted while the read waits on
// the disk (read-repair purging a corrupt replica under an in-flight
// reader), the handle serves the bytes it opened — POSIX unlink semantics —
// instead of tripping over the released file table entry. The result is
// read-only (see the package comment).
func (h *File) ReadAt(p *sim.Proc, off, length int64) []byte {
	length = h.clamp(off, length)
	if length <= 0 {
		return nil
	}
	data := h.f.bytes(off, length)
	h.charge(p, off, length)
	return data
}

// ReadAppend is ReadAt into the caller's buffer: the same cache traffic,
// stage tag and counters, with the bytes appended to dst, so a reader that
// frames records in a buffer of its own takes them in one copy — none for
// a generated range, which is made where it lands.
func (h *File) ReadAppend(p *sim.Proc, dst []byte, off, length int64) []byte {
	length = h.clamp(off, length)
	if length <= 0 {
		return dst
	}
	dst = h.f.appendRange(dst, off, length)
	h.charge(p, off, length)
	return dst
}

// Contents is a range of a file as the read that found it saw it, by
// reference: the held runs' arrays and the generated runs' sources, none of
// them made or copied.
type Contents struct {
	segs []segment
	gens []generated // beside segs
}

// ReadContents is ReadAt for a reader that stores what it reads in another
// file (re-replication): the same cache traffic, stage tag and counters,
// and the range by reference, so a copy of a generated range stays
// generated.
func (h *File) ReadContents(p *sim.Proc, off, length int64) Contents {
	var c Contents
	if length = h.clamp(off, length); length <= 0 {
		return c
	}
	f, end := h.f, off+length
	for i := f.segAt(off); i < len(f.segs) && f.segs[i].off < end; i++ {
		f.held(i)
		s := f.segs[i]
		lo, hi := max(off, s.off)-s.off, min(end, s.end())-s.off
		seg, g := segment{n: hi - lo}, generated{}
		if src := f.source(i); src != nil {
			g = generated{src: src.src, at: src.at + lo}
		} else {
			seg.data = s.data[lo:hi:hi]
		}
		c.segs, c.gens = append(c.segs, seg), append(c.gens, g)
	}
	h.charge(p, off, length)
	return c
}

// Scan is ReadAt for a reader that needs the read to happen and not its
// bytes (the scrubber, which verifies against checksums by other means):
// the same cache traffic, stage tag and counters, and a generated range is
// not made.
func (h *File) Scan(p *sim.Proc, off, length int64) {
	if length = h.clamp(off, length); length > 0 {
		h.charge(p, off, length)
	}
}

// clamp returns how much of [off, off+length) lies inside the file.
func (h *File) clamp(off, length int64) int64 {
	if off < 0 || off >= h.f.size {
		return 0
	}
	return min(length, h.f.size-off)
}

// charge is a read's timing: the cache fetches of [off, off+length) and
// the counters.
func (h *File) charge(p *sim.Proc, off, length int64) {
	var runs [2]extent
	for _, r := range h.f.sectorRanges(runs[:0], off, length) {
		h.rs.Limit = h.f.extentEnd(r.sector)
		h.fs.cache.Read(p, &h.rs, r.sector, int(r.sectors), h.stage)
	}
	h.fs.stats.BytesRead += uint64(length)
}

// ReadOnce is ReadAt for a range's last reader: the same cache traffic,
// stage tag, counters and result, after which the file lets go of every
// segment lying wholly inside the range (see the package comment). Views
// handed out earlier stay valid; reading a let-go segment again panics.
func (h *File) ReadOnce(p *sim.Proc, off, length int64) []byte {
	data := h.ReadAt(p, off, length)
	// After the read, not before: a crash may have truncated the file while
	// the read slept, and what is left is what there is to let go.
	h.f.letGo(off, off+int64(len(data)))
	return data
}

// Sync flushes the whole cache (per-file dirty tracking is not modeled; the
// runtime syncs at well-defined points where whole-cache flush is faithful
// enough).
func (h *File) Sync(p *sim.Proc) { h.fs.cache.Sync(p) }

// Close releases the handle, which holds nothing that needs releasing.
func (h *File) Close() {}

// letGo drops the file's reference to the bytes of every segment wholly
// inside [lo, hi).
func (f *file) letGo(lo, hi int64) {
	for i := f.segAt(lo); i < len(f.segs) && f.segs[i].end() <= hi; i++ {
		if f.segs[i].off >= lo {
			f.segs[i].data = nil
			if f.gens != nil {
				(*f.gens)[i] = generated{}
			}
		}
	}
}

// source returns what makes segment i's bytes, or nil when the segment
// holds them or a ReadOnce let them go.
func (f *file) source(i int) *generated {
	if f.gens == nil || (*f.gens)[i].src == nil {
		return nil
	}
	return &(*f.gens)[i]
}

// gone is whether a ReadOnce let segment i go.
func (f *file) gone(i int) bool { return f.segs[i].data == nil && f.source(i) == nil }

// held panics unless segment i still has its bytes, which a read is about
// to touch.
func (f *file) held(i int) {
	if f.gone(i) {
		panic(fmt.Sprintf("localfs: read of %s at offset %d: a ReadOnce let these bytes go", f.name, f.segs[i].off))
	}
}

// segAt returns the index of the segment holding file offset off, which
// must be below f.size.
func (f *file) segAt(off int64) int {
	return sort.Search(len(f.segs), func(i int) bool { return f.segs[i].end() > off })
}

// bytes returns the contents of [off, off+length), which must lie inside
// the file: a capacity-limited view when one held segment has the range,
// made or gathered into a fresh slice otherwise.
func (f *file) bytes(off, length int64) []byte {
	if length <= 0 {
		return nil
	}
	i, end := f.segAt(off), off+length
	if s := f.segs[i]; end <= s.end() && s.data != nil {
		return s.data[off-s.off : end-s.off : end-s.off]
	}
	return f.appendRange(make([]byte, 0, length), off, length)
}

// appendRange appends the contents of [off, off+length), which must lie
// inside the file, to dst. A generated segment's bytes come from its
// source, which goes on from where its last read ended.
func (f *file) appendRange(dst []byte, off, length int64) []byte {
	end := off + length
	for i := f.segAt(off); i < len(f.segs) && f.segs[i].off < end; i++ {
		f.held(i)
		s := f.segs[i]
		lo, hi := max(off, s.off)-s.off, min(end, s.end())-s.off
		if g := f.source(i); g != nil {
			dst = g.src.AppendTo(dst, g.at+lo, g.at+hi)
		} else {
			dst = append(dst, s.data[lo:hi]...)
		}
	}
	return dst
}

// Origin identifies the one stored run that holds all of a file's bytes:
// the first byte of its array, or its Source and the offset the file starts
// at in it. Two files of one size whose Origins are the Same hold the same
// bytes, since nothing stored is written again.
type Origin struct {
	arr *byte
	src Source
	at  int64
}

// Same reports whether o and q name one stored run; the zero Origin names
// none.
func (o Origin) Same(q Origin) bool {
	if o.src != nil {
		return o.src == q.src && o.at == q.at
	}
	return o.arr != nil && o.arr == q.arr
}

// ArrayOrigin is the Origin of a file that stores data whole.
func ArrayOrigin(data []byte) Origin {
	if len(data) == 0 {
		return Origin{}
	}
	return Origin{arr: &data[0]}
}

// Origin returns name's Origin, or the zero Origin when the file is absent
// or empty, spans several runs (a corrupted range makes three) or a
// ReadOnce let its bytes go.
func (fs *FS) Origin(name string) Origin {
	f, ok := fs.files[name]
	if !ok || len(f.segs) != 1 {
		return Origin{}
	}
	if g := f.source(0); g != nil {
		return Origin{src: g.src, at: g.at}
	}
	return ArrayOrigin(f.segs[0].data)
}

// sectorRanges appends to dst the device sector runs backing the byte range
// [off, off+length), one per extent crossed, in file order: a snapshot, as
// callers block between runs. There is almost always one, so callers pass a
// small array of their own and nothing is allocated.
func (f *file) sectorRanges(dst []extent, off, length int64) []extent {
	if length <= 0 {
		return dst
	}
	firstSect := off / disk.SectorSize
	lastSect := (off + length + disk.SectorSize - 1) / disk.SectorSize
	var walked int64
	for _, e := range f.extents {
		extFirst := walked
		walked += e.sectors
		if walked <= firstSect {
			continue
		}
		lo, hi := max(firstSect, extFirst), min(lastSect, walked)
		dst = append(dst, extent{sector: e.sector + (lo - extFirst), sectors: hi - lo})
		if walked >= lastSect {
			break
		}
	}
	return dst
}

// extentEnd returns the exclusive device-sector bound of the extent
// containing sector, used to fence readahead inside the file's own space.
func (f *file) extentEnd(sector int64) int64 {
	for _, e := range f.extents {
		if sector >= e.sector && sector < e.end() {
			return e.end()
		}
	}
	return sector
}

// grow allocates at least want more sectors for f (rounded up to the extent
// granularity), preferring to extend the file's last extent when the next
// device sectors are free — files written alone stay sequential; files
// written concurrently interleave.
func (fs *FS) grow(f *file, want int64) {
	n := fs.extSize
	for n < want {
		n += fs.extSize
	}
	fs.journalRecs++
	// Try to extend in place from the bump pointer.
	if len(f.extents) > 0 && f.extents[len(f.extents)-1].end() == fs.nextFree {
		if fs.nextFree+n <= fs.d.P.Sectors {
			f.extents[len(f.extents)-1].sectors += n
			f.alloced += n
			fs.nextFree += n
			return
		}
	}
	e := fs.allocExtent(n)
	// Coalesce with the previous extent if adjacent.
	if len(f.extents) > 0 && f.extents[len(f.extents)-1].end() == e.sector {
		f.extents[len(f.extents)-1].sectors += e.sectors
	} else {
		f.extents = append(f.extents, e)
	}
	f.alloced += n
}

// allocExtent takes n sectors: first-fit from the free list, else from the
// bump pointer. Exhaustion panics — experiments must size their disks.
func (fs *FS) allocExtent(n int64) extent {
	for i, e := range fs.free {
		if e.sectors >= n {
			out := extent{sector: e.sector, sectors: n}
			if e.sectors == n {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
			} else {
				fs.free[i] = extent{sector: e.sector + n, sectors: e.sectors - n}
			}
			return out
		}
	}
	if fs.nextFree+n > fs.d.P.Sectors {
		panic(fmt.Sprintf("localfs: disk %s full (%d sectors, need %d more)", fs.d.P.Name, fs.d.P.Sectors, n))
	}
	out := extent{sector: fs.nextFree, sectors: n}
	fs.nextFree += n
	return out
}

// freeExtent returns e to the free list, keeping it sorted and coalesced.
func (fs *FS) freeExtent(e extent) {
	i := sort.Search(len(fs.free), func(i int) bool { return fs.free[i].sector >= e.sector })
	fs.free = append(fs.free, extent{})
	copy(fs.free[i+1:], fs.free[i:])
	fs.free[i] = e
	// Coalesce with neighbours.
	if i+1 < len(fs.free) && fs.free[i].end() == fs.free[i+1].sector {
		fs.free[i].sectors += fs.free[i+1].sectors
		fs.free = append(fs.free[:i+1], fs.free[i+2:]...)
	}
	if i > 0 && fs.free[i-1].end() == fs.free[i].sector {
		fs.free[i-1].sectors += fs.free[i].sectors
		fs.free = append(fs.free[:i], fs.free[i+1:]...)
	}
}

// FreeExtentCount returns the size of the free list (fragmentation probe).
func (fs *FS) FreeExtentCount() int { return len(fs.free) }

// LeakedExtents returns the number of device sectors that are neither on
// the free list nor backing a live file — allocation leaked by a delete
// path that failed to return extents. Zero on a correct filesystem at any
// point; the chaos harness checks it after every run.
func (fs *FS) LeakedExtents() int64 {
	leaked := fs.nextFree
	for _, e := range fs.free {
		leaked -= e.sectors
	}
	for _, f := range fs.files {
		leaked -= f.alloced
	}
	return leaked
}

// ExtentCount returns the number of extents backing name, or 0 if absent —
// a direct fragmentation measure.
func (fs *FS) ExtentCount(name string) int {
	f, ok := fs.files[name]
	if !ok {
		return 0
	}
	return len(f.extents)
}
