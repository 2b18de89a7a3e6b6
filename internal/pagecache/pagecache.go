// Package pagecache models the OS page cache in front of one simulated disk:
// 4 KiB pages, LRU eviction, sequential readahead with a doubling window,
// background dirty writeback with contiguous-run clustering, dirty-ratio
// writer throttling, and discard of deleted data before it reaches the disk.
//
// The cache is a timing/residency model only — file contents are stored by
// internal/localfs. What the cache decides is which accesses become disk
// requests, how large those requests are, and when they are issued: exactly
// the levers behind the paper's memory-size observations (more memory ⇒
// fewer I/O requests, absorbed spill files, bigger writeback bursts).
//
// Host cost follows what is resident. Pages live in a two-level page table
// indexed by page number, whose chunks exist only while they hold a page;
// writeback, crash and discard walk it in page order and skip empty chunks.
// Page structs are recycled through a free list the moment they leave the
// cache, so nothing holds a *page across a simulation yield: a fill re-looks
// its pages up by number when its disk read completes and settles only those
// still pending on its own event, never a struct since reused for another
// page or refetched for the same one.
package pagecache

import (
	"math"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

// PageSize is the page size in bytes; PageSectors is its size in sectors.
const (
	PageSize    = 4096
	PageSectors = PageSize / disk.SectorSize
)

// Options tune the cache's writeback and readahead behaviour. The defaults
// (see DefaultOptions) follow Linux conventions.
type Options struct {
	// DirtyBGRatio is the dirty fraction above which background writeback
	// starts working aggressively (Linux dirty_background_ratio).
	DirtyBGRatio float64
	// DirtyHardRatio is the dirty fraction at which writers block until
	// writeback catches up (Linux dirty_ratio).
	DirtyHardRatio float64
	// WritebackInterval is the period of the background flusher.
	WritebackInterval time.Duration
	// ReadaheadMaxPages caps the readahead window (Linux default 128 KiB).
	ReadaheadMaxPages int
	// DirtyExpire is the age at which a dirty page is flushed regardless of
	// the dirty ratio (Linux dirty_expire_centisecs, default 30 s). Without
	// it, small dirty residues would sit in memory forever.
	DirtyExpire time.Duration
	// NoReadahead disables prefetching (ablation).
	NoReadahead bool
}

// DefaultOptions returns Linux-flavoured defaults.
func DefaultOptions() Options {
	return Options{
		DirtyBGRatio:      0.10,
		DirtyHardRatio:    0.40,
		WritebackInterval: time.Second,
		ReadaheadMaxPages: 32, // 128 KiB
		DirtyExpire:       30 * time.Second,
	}
}

// Stats counts cache activity for tests and reports.
type Stats struct {
	Hits           uint64
	Misses         uint64
	ReadaheadPages uint64
	FlushedPages   uint64
	EvictedClean   uint64
	EvictedDirty   uint64 // dirty pages flushed due to memory pressure
	DiscardedDirty uint64 // dirty pages dropped before ever reaching disk
	ThrottleStalls uint64
}

type page struct {
	num     int64 // page number on the device
	dirty   bool
	dirtyAt time.Duration // when the page last became dirty
	stage   disk.Stage    // pipeline stage that last wrote (or read) the page
	pending *sim.Event    // in-flight disk read filling this page, if any

	// Intrusive LRU links (prev is toward the MRU front, next toward the
	// tail), so residency tracking costs no allocation beyond the page.
	prev, next *page
}

// lruList is an intrusive doubly-linked list threaded through the pages;
// front is most recently used.
type lruList struct {
	front, back *page
}

func (l *lruList) pushFront(pg *page) {
	pg.prev = nil
	pg.next = l.front
	if l.front != nil {
		l.front.prev = pg
	} else {
		l.back = pg
	}
	l.front = pg
}

func (l *lruList) remove(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.front = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.back = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

func (l *lruList) moveToFront(pg *page) {
	if l.front == pg {
		return
	}
	l.remove(pg)
	l.pushFront(pg)
}

// A page-table chunk covers chunkPages consecutive page numbers (2 MiB of
// device).
const (
	chunkShift = 9
	chunkPages = 1 << chunkShift
)

// pageTable maps page numbers to resident pages: a directory indexed by page
// number / chunkPages whose entries hold a chunk of page slots and its
// resident count. A chunk is allocated when its first page arrives and
// released when its last leaves, so the table's memory follows what is
// resident, not the device's size.
type pageTable struct {
	dir   []chunk
	spare *[chunkPages]*page // the last released chunk, reused by the next
	n     int                // resident pages
}

type chunk struct {
	pages    *[chunkPages]*page // nil while the chunk holds no page
	resident int
}

// get returns page n, or nil if it is not resident — including n < 0 and n
// past the device, which dirtyRunAround asks about at either end.
func (t *pageTable) get(n int64) *page {
	if i := uint64(n >> chunkShift); i < uint64(len(t.dir)) && t.dir[i].pages != nil {
		return t.dir[i].pages[n&(chunkPages-1)]
	}
	return nil
}

// put makes pg resident in its (empty) slot.
func (t *pageTable) put(pg *page) {
	i := int(pg.num >> chunkShift)
	if i >= len(t.dir) {
		t.dir = append(t.dir, make([]chunk, i+1-len(t.dir))...)
	}
	ch := &t.dir[i]
	if ch.pages == nil {
		if ch.pages, t.spare = t.spare, nil; ch.pages == nil {
			ch.pages = new([chunkPages]*page)
		}
	}
	ch.pages[pg.num&(chunkPages-1)] = pg
	ch.resident++
	t.n++
}

// del empties resident page n's slot.
func (t *pageTable) del(n int64) {
	ch := &t.dir[n>>chunkShift]
	ch.pages[n&(chunkPages-1)] = nil
	t.n--
	if ch.resident--; ch.resident == 0 {
		t.spare, ch.pages = ch.pages, nil
	}
}

// next returns the lowest-numbered resident page in [lo, hi), or nil.
func (t *pageTable) next(lo, hi int64) *page {
	hi = min(hi, int64(len(t.dir))<<chunkShift)
	for lo = max(lo, 0); lo < hi; {
		end := min((lo|(chunkPages-1))+1, hi)
		if pages := t.dir[lo>>chunkShift].pages; pages != nil {
			for ; lo < end; lo++ {
				if pg := pages[lo&(chunkPages-1)]; pg != nil {
					return pg
				}
			}
		}
		lo = end
	}
	return nil
}

// Cache is the page cache for one device. Create with New.
type Cache struct {
	env  *sim.Env
	d    *disk.Disk
	opts Options

	capacity int // pages
	pages    pageTable
	lru      lruList // front = most recently used
	free     *page   // recycled page structs, linked through next
	dirty    int

	kick  *sim.Cond // unparks the writeback daemon when pages first dirty
	stats Stats
}

// newPage returns a reset page struct, recycling evicted ones: at steady
// state the cache churns pages at disk speed, and the free list keeps that
// churn from being an allocation per page.
func (c *Cache) newPage(n int64) *page {
	pg := c.free
	if pg == nil {
		return &page{num: n}
	}
	c.free = pg.next
	*pg = page{num: n}
	return pg
}

// New creates a cache of capacityPages pages backed by d and starts its
// writeback daemon. opts is taken as given: start from DefaultOptions.
func New(env *sim.Env, d *disk.Disk, capacityPages int, opts Options) *Cache {
	if capacityPages < 8 {
		capacityPages = 8
	}
	c := &Cache{
		env:      env,
		d:        d,
		opts:     opts,
		capacity: capacityPages,
		kick:     sim.NewCond(env),
	}
	env.Go("writeback:"+d.P.Name, func(p *sim.Proc) {
		p.SetDaemon(true)
		c.writebackLoop(p)
	})
	return c
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyPages returns the current number of dirty pages.
func (c *Cache) DirtyPages() int { return c.dirty }

// ResidentPages returns the number of cached pages.
func (c *Cache) ResidentPages() int { return c.pages.n }

// ReadState tracks one sequential stream's readahead window. Use one per
// open file/stream. Limit, when positive, is the first device sector the
// prefetcher must not cross — callers set it to the end of the current file
// extent so readahead never strays into neighbouring files.
type ReadState struct {
	Limit    int64 // exclusive readahead bound in sectors; 0 = device end
	nextPage int64 // expected next page if access stays sequential
	window   int   // current readahead window, pages
}

// pageRange converts a sector range to an inclusive-exclusive page range.
func pageRange(sector int64, nsect int) (int64, int64) {
	first := sector / PageSectors
	last := (sector + int64(nsect) + PageSectors - 1) / PageSectors
	return first, last
}

// Read brings the sector range into the cache, blocking p until every
// covered page is resident. rs may be nil for non-streaming access (no
// readahead). Misses are fetched with as few, as large disk requests as the
// miss pattern allows; sequential streams additionally prefetch a doubling
// readahead window asynchronously. Disk reads issued on behalf of this
// access (demand fetches and the readahead they trigger) carry the
// pipeline-stage tag for per-stage physical attribution.
func (c *Cache) Read(p *sim.Proc, rs *ReadState, sector int64, nsect int, stage disk.Stage) {
	first, last := pageRange(sector, nsect)

	// Readahead window bookkeeping.
	ra := 0
	if rs != nil && !c.opts.NoReadahead {
		if first == rs.nextPage || (first < rs.nextPage && last > rs.nextPage) {
			rs.window *= 2
			if rs.window == 0 {
				rs.window = 4
			}
			if rs.window > c.opts.ReadaheadMaxPages {
				rs.window = c.opts.ReadaheadMaxPages
			}
		} else {
			rs.window = 0 // seek: reset
		}
		rs.nextPage = last
		ra = rs.window
	}

	// Collect misses in [first, last), then fetch each contiguous miss run
	// with one submission (the block layer may merge runs further). The
	// waits stay on the stack unless there are more than a few.
	var buf [4]*sim.Event
	waits := buf[:0]
	runStart := int64(-1)
	for n := first; n < last; n++ {
		pg := c.lookup(n)
		if pg == nil {
			c.stats.Misses++
			if runStart < 0 {
				runStart = n
			}
			continue
		}
		c.stats.Hits++
		if pg.pending != nil {
			waits = append(waits, pg.pending)
		}
		if runStart >= 0 {
			waits = append(waits, c.fetch(runStart, n, stage))
			runStart = -1
		}
	}
	if runStart >= 0 {
		waits = append(waits, c.fetch(runStart, last, stage))
	}

	// Asynchronous readahead beyond the demanded range.
	if ra > 0 {
		raFirst, raLast := last, last
		maxPage := c.d.P.Sectors / PageSectors
		if rs != nil && rs.Limit > 0 {
			if lim := rs.Limit / PageSectors; lim < maxPage {
				maxPage = lim
			}
		}
		for n := last; n < last+int64(ra) && n < maxPage; n++ {
			if c.lookup(n) == nil {
				raLast = n + 1
			} else {
				break
			}
		}
		if raLast > raFirst {
			c.stats.ReadaheadPages += uint64(raLast - raFirst)
			c.fetch(raFirst, raLast, stage)
		}
	}

	for _, ev := range waits {
		ev.Wait(p)
	}
}

// fill is a fetch in flight, its one allocation besides the disk request:
// pages [first, last) are pending on ev until req completes.
type fill struct {
	ev          sim.Event
	c           *Cache
	req         *disk.Request
	first, last int64
	step        func() // f.run, bound once
	registered  bool   // run has registered step on req's completion
}

// fetch inserts pending pages [first,last) and submits one disk read for
// them, returning the completion event. Pages become clean residents once
// the read completes.
func (c *Cache) fetch(first, last int64, stage disk.Stage) *sim.Event {
	f := &fill{c: c, first: first, last: last}
	f.ev.Init(c.env)
	for n := first; n < last; n++ {
		pg := c.newPage(n)
		pg.stage = stage
		pg.pending = &f.ev
		c.insert(pg)
	}
	f.req = c.d.SubmitStaged(disk.Read, first*PageSectors, int(last-first)*PageSectors, stage)
	// The fill is a callback on req's completion, registered from a
	// zero-delay callback: the registration takes the event slot a fill
	// process's first resume took, and the fill the slot of that process's
	// wakeup, so the event sequence is the one fill processes produced.
	f.step = f.run
	c.env.After(0, f.step)
	return &f.ev
}

// run is both of a fill's callbacks: the first registers the second on req's
// completion, which settles the pages still pending on f and fires f.ev.
func (f *fill) run() {
	if !f.registered {
		f.registered = true
		f.c.d.OnComplete(f.req, f.step)
		return
	}
	for n := f.first; n < f.last; n++ {
		if pg := f.c.pages.get(n); pg != nil && pg.pending == &f.ev {
			pg.pending = nil
		}
	}
	f.ev.Fire()
}

// Write dirties the covered pages without touching the disk. If the dirty
// ratio exceeds the hard limit, the writer is throttled until writeback
// catches up — the mechanism that couples memory size to write behaviour.
// The pipeline-stage tag is recorded on the dirtied pages (last writer wins)
// and travels with them to the eventual writeback request, so deferred
// flushes are still attributed to the stage that produced the data rather
// than to the flusher.
func (c *Cache) Write(p *sim.Proc, sector int64, nsect int, stage disk.Stage) {
	first, last := pageRange(sector, nsect)
	for n := first; n < last; n++ {
		pg := c.lookup(n)
		if pg == nil {
			pg = c.newPage(n)
			c.insert(pg)
		}
		pg.stage = stage
		if !pg.dirty {
			pg.dirty = true
			pg.dirtyAt = c.env.Now()
			c.dirty++
			if c.dirty == 1 {
				c.kick.Broadcast() // unpark the writeback daemon
			}
		}
	}
	// Dirty-ratio throttling, Linux balance_dirty_pages style: a writer that
	// pushes the cache past the hard limit performs writeback itself, which
	// is what couples write-heavy workloads to disk speed when memory is
	// scarce.
	if float64(c.dirty) > c.opts.DirtyHardRatio*float64(c.capacity) {
		c.stats.ThrottleStalls++
		c.flushDown(p, int(c.opts.DirtyHardRatio*float64(c.capacity)/2))
	}
}

// lookup returns the resident page and refreshes its LRU position.
func (c *Cache) lookup(n int64) *page {
	pg := c.pages.get(n)
	if pg != nil {
		c.lru.moveToFront(pg)
	}
	return pg
}

// insert adds a page, evicting from the LRU tail as needed.
func (c *Cache) insert(pg *page) {
	for c.pages.n >= c.capacity {
		if !c.evictOne() {
			break // everything is pinned/dirty beyond help; overcommit briefly
		}
	}
	c.lru.pushFront(pg)
	c.pages.put(pg)
}

// evictOne removes the least recently used evictable page. Clean, idle
// pages are preferred; if the tail region is all dirty, the oldest dirty
// page is flushed synchronously as part of a clustered run (memory-pressure
// writeback). Returns false if nothing could be evicted.
func (c *Cache) evictOne() bool {
	var oldestDirty *page
	for pg := c.lru.back; pg != nil; pg = pg.prev {
		if pg.pending != nil {
			continue
		}
		if !pg.dirty {
			c.remove(pg)
			c.stats.EvictedClean++
			return true
		}
		if oldestDirty == nil {
			oldestDirty = pg
		}
	}
	if oldestDirty == nil {
		return false
	}
	// Memory pressure: flush a clustered run around the oldest dirty page,
	// then drop those pages.
	lo, hi := c.dirtyRunAround(oldestDirty.num)
	c.stats.EvictedDirty += uint64(hi - lo)
	c.flushRunAndDrop(lo, hi)
	return true
}

func (c *Cache) remove(pg *page) {
	c.lru.remove(pg)
	c.pages.del(pg.num)
	if pg.dirty {
		c.dirty--
	}
	// Recycle the struct (see the package comment). num is left as it is
	// until the struct is reused, so a walk can step past a page it removed.
	pg.pending = nil
	pg.next = c.free
	c.free = pg
}

// dirtyRunAround returns the maximal contiguous run [lo, hi) of dirty page
// numbers containing n, capped at the device's request ceiling.
func (c *Cache) dirtyRunAround(n int64) (lo, hi int64) {
	maxPages := int64(c.d.P.MaxReqSect / PageSectors)
	lo = n
	for lo > n-maxPages {
		pg := c.pages.get(lo - 1)
		if pg == nil || !pg.dirty || pg.pending != nil {
			break
		}
		lo--
	}
	hi = n + 1
	for hi < lo+maxPages {
		pg := c.pages.get(hi)
		if pg == nil || !pg.dirty || pg.pending != nil {
			break
		}
		hi++
	}
	return lo, hi
}

// flushRunAndDrop writes the contiguous dirty run [lo, hi) and removes the
// pages. Used under memory pressure; the caller is the cache-internal path,
// so the disk write is fire-and-forget (the request is already queued and
// counted).
func (c *Cache) flushRunAndDrop(lo, hi int64) {
	stage := c.pages.get(lo).stage
	for n := lo; n < hi; n++ {
		c.remove(c.pages.get(n))
	}
	c.writeRun(lo, int(hi-lo), stage)
}

// writeRun submits the write-back of pages [start, start+pages).
func (c *Cache) writeRun(start int64, pages int, stage disk.Stage) *disk.Request {
	c.stats.FlushedPages += uint64(pages)
	return c.d.SubmitStaged(disk.Write, start*PageSectors, pages*PageSectors, stage)
}

// writebackLoop is the background flusher. It parks on a condition while the
// cache is fully clean (so a drained simulation can terminate), and while
// dirty pages exist it wakes every WritebackInterval; when the dirty ratio
// exceeds the background threshold it flushes clustered runs until back
// under half the threshold. Dirty pages below the threshold are left to age
// — they are either discarded with their file or flushed by Sync.
func (c *Cache) writebackLoop(p *sim.Proc) {
	for {
		for c.dirty == 0 {
			c.kick.Wait(p)
		}
		p.Sleep(c.opts.WritebackInterval)
		if float64(c.dirty) > c.opts.DirtyBGRatio*float64(c.capacity) {
			c.flushDown(p, int(c.opts.DirtyBGRatio*float64(c.capacity)/2))
		}
		c.flushExpired(p)
	}
}

// flushExpired flushes every dirty page older than DirtyExpire, so residues
// below the background ratio still reach the disk (and a drained simulation
// eventually reaches dirty == 0 and parks the daemon).
func (c *Cache) flushExpired(p *sim.Proc) {
	cutoff := c.env.Now() - c.opts.DirtyExpire
	if cutoff < 0 || c.dirty == 0 {
		return
	}
	for _, r := range c.flushRuns(c.dirty, cutoff) {
		c.d.Wait(p, r)
	}
}

// flushDown flushes dirty pages (clean-marking them, keeping them resident)
// until at most target dirty pages remain.
func (c *Cache) flushDown(p *sim.Proc, target int) {
	for c.dirty > target {
		reqs := c.flushRuns(c.dirty-target, math.MaxInt64)
		if len(reqs) == 0 {
			return
		}
		for _, r := range reqs {
			c.d.Wait(p, r)
		}
	}
}

// flushRuns walks the page table in page order, clean-marks up to limit
// dirty pages that have no fill in flight and were dirtied at or before
// cutoff, and writes them back as contiguous runs capped at the device's
// request ceiling — writeback's characteristic large sequential bursts. It
// returns the requests in submission order.
func (c *Cache) flushRuns(limit int, cutoff time.Duration) []*disk.Request {
	maxRun := c.d.P.MaxReqSect / PageSectors
	var reqs []*disk.Request
	var start int64
	var stage disk.Stage
	run := 0 // pages in the run starting at start
	for pg := c.pages.next(0, math.MaxInt64); pg != nil && limit > 0; pg = c.pages.next(pg.num+1, math.MaxInt64) {
		if !pg.dirty || pg.pending != nil || pg.dirtyAt > cutoff {
			continue
		}
		if run > 0 && (pg.num != start+int64(run) || run >= maxRun) {
			reqs = append(reqs, c.writeRun(start, run, stage))
			run = 0
		}
		if run == 0 {
			start, stage = pg.num, pg.stage
		}
		run++
		pg.dirty = false
		c.dirty--
		limit--
	}
	if run > 0 {
		reqs = append(reqs, c.writeRun(start, run, stage))
	}
	return reqs
}

// Sync flushes every dirty page and blocks p until the writes complete.
func (c *Cache) Sync(p *sim.Proc) {
	c.flushDown(p, 0)
}

// DropAll empties the cache without writeback — the fate of every resident
// page when the node hosting the device crashes. Pages with an in-flight
// fill are left pending (their disk request already exists and will
// complete; the fill path tolerates the page being gone).
func (c *Cache) DropAll() {
	c.discard(0, math.MaxInt64)
}

// FirstDirtyInRange returns the device sector of the lowest-numbered dirty
// page overlapping [sector, sector+nsect), or -1 if every covered page is
// clean or absent. Crash semantics use it to find the flushed prefix of a
// file: bytes past the first dirty page never reached the platter.
func (c *Cache) FirstDirtyInRange(sector int64, nsect int) int64 {
	first, last := pageRange(sector, nsect)
	for pg := c.pages.next(first, last); pg != nil; pg = c.pages.next(pg.num+1, last) {
		if pg.dirty {
			return max(pg.num*PageSectors, sector)
		}
	}
	return -1
}

// Discard drops the covered pages without writeback — the fate of deleted
// files (e.g. MapReduce intermediate data removed after the job). Dirty
// pages die here without ever generating disk traffic, which is how extra
// memory absorbs spill I/O.
func (c *Cache) Discard(sector int64, nsect int) {
	first, last := pageRange(sector, nsect)
	c.discard(first, last)
}

// discard removes the resident pages in [first, last) that have no fill in
// flight.
func (c *Cache) discard(first, last int64) {
	for pg := c.pages.next(first, last); pg != nil; pg = c.pages.next(pg.num+1, last) {
		if pg.pending != nil {
			continue
		}
		if pg.dirty {
			c.stats.DiscardedDirty++
		}
		c.remove(pg)
	}
}
