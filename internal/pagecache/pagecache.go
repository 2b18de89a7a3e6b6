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
// Host cost follows what is resident, and writeback's what is dirty. Pages
// live in a two-level page table indexed by page number, whose chunks exist
// only while they hold a page and keep two bitmaps, of the slots that hold a
// page and of the pages that are dirty. Discard walks the first, writeback
// and crash the second, in page order, a word per 64 slots, skipping empty
// chunks.
// Page structs are recycled through a free list the moment they leave the
// cache, so nothing holds a *page across a simulation yield: a fill re-looks
// its pages up by number when its disk read completes and settles only those
// still pending on its own event, never a struct since reused for another
// page or refetched for the same one.
package pagecache

import (
	"math"
	"math/bits"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

// PageSize is the page size in bytes; PageSectors is its size in sectors.
const (
	PageSize    = 4096
	PageSectors = PageSize / disk.SectorSize
)

// Linux's writeback defaults. A dirty page is flushed once dirtyExpire old
// whatever the ratios, so small dirty residues do not sit in memory forever.
const (
	dirtyBGRatio      = 0.10             // dirty_background_ratio: background writeback works hard above it
	dirtyHardRatio    = 0.40             // dirty_ratio: writers block until writeback catches up
	writebackInterval = time.Second      // the background flusher's period
	dirtyExpire       = 30 * time.Second // dirty_expire_centisecs
)

// DefaultReadaheadPages is Linux's readahead window cap, 128 KiB.
const DefaultReadaheadPages = 32

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

// A chunk's two bitmaps, one bit per slot: which slots hold a page, and
// which of those pages are dirty.
const (
	residentBits = iota
	dirtyBits
)

// pageTable maps page numbers to resident pages: a directory indexed by page
// number / chunkPages whose entries are chunks of page slots. A chunk is
// allocated when its first page arrives and released when its last leaves,
// so the table's memory follows what is resident, not the device's size.
// The table owns dirtiness too: setDirty and setClean are the only writers
// of a page's dirty flag, its chunk's dirty bit and the dirty count.
type pageTable struct {
	dir      []*chunk // nil where the chunk holds no page
	spare    *chunk   // the last released chunk, reused by the next
	n, dirty int      // resident and dirty pages
}

type chunk struct {
	pages    [chunkPages]*page
	bits     [2][chunkPages / 64]uint64 // residentBits, dirtyBits
	resident int
}

// flip toggles page n's bit in the chunk's bitmap set; each caller knows
// which way it goes.
func (ch *chunk) flip(set int, n int64) {
	ch.bits[set][n>>6&(chunkPages/64-1)] ^= 1 << (n & 63)
}

// get returns page n, or nil if it is not resident — including n < 0 and n
// past the device, which dirtyRunAround asks about at either end.
func (t *pageTable) get(n int64) *page {
	if i := uint64(n >> chunkShift); i < uint64(len(t.dir)) && t.dir[i] != nil {
		return t.dir[i].pages[n&(chunkPages-1)]
	}
	return nil
}

// put makes clean page pg resident in its (empty) slot.
func (t *pageTable) put(pg *page) {
	i := int(pg.num >> chunkShift)
	if i >= len(t.dir) {
		t.dir = append(t.dir, make([]*chunk, i+1-len(t.dir))...)
	}
	ch := t.dir[i]
	if ch == nil {
		if ch, t.spare = t.spare, nil; ch == nil {
			ch = new(chunk)
		}
		t.dir[i] = ch
	}
	ch.pages[pg.num&(chunkPages-1)] = pg
	ch.flip(residentBits, pg.num)
	ch.resident++
	t.n++
}

// del empties clean resident page n's slot.
func (t *pageTable) del(n int64) {
	ch := t.dir[n>>chunkShift]
	ch.pages[n&(chunkPages-1)] = nil
	ch.flip(residentBits, n)
	t.n--
	if ch.resident--; ch.resident == 0 {
		t.spare, t.dir[n>>chunkShift] = ch, nil
	}
}

// setDirty marks clean resident page pg dirty as of at.
func (t *pageTable) setDirty(pg *page, at time.Duration) {
	t.dir[pg.num>>chunkShift].flip(dirtyBits, pg.num)
	pg.dirty, pg.dirtyAt = true, at
	t.dirty++
}

// setClean marks dirty resident page pg clean.
func (t *pageTable) setClean(pg *page) {
	t.dir[pg.num>>chunkShift].flip(dirtyBits, pg.num)
	pg.dirty = false
	t.dirty--
}

// next returns the lowest-numbered page in [lo, hi) whose bit is set in its
// chunk's bitmap set (residentBits or dirtyBits), or nil. It visits a word
// per 64 slots and skips chunks that hold no page.
func (t *pageTable) next(set int, lo, hi int64) *page {
	hi = min(hi, int64(len(t.dir))<<chunkShift)
	for lo = max(lo, 0); lo < hi; lo = (lo | (chunkPages - 1)) + 1 {
		ch := t.dir[lo>>chunkShift]
		for s := lo & (chunkPages - 1); ch != nil && s < chunkPages; s = (s | 63) + 1 {
			if word := ch.bits[set][s>>6] >> (s & 63); word != 0 {
				if n := lo&^(chunkPages-1) + s + int64(bits.TrailingZeros64(word)); n < hi {
					return ch.pages[n&(chunkPages-1)]
				}
				return nil
			}
		}
	}
	return nil
}

// Cache is the page cache for one device. Create with New.
type Cache struct {
	env *sim.Env
	d   *disk.Disk

	readahead int // readahead window cap, in pages
	capacity  int // pages
	pages     pageTable
	lru       lruList // front = most recently used
	free      *page   // recycled page structs, linked through next

	kick  *sim.Cond // wakes the background flusher when pages first dirty
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
// background flusher. readaheadMaxPages caps the readahead window; 0
// disables prefetching.
func New(env *sim.Env, d *disk.Disk, capacityPages, readaheadMaxPages int) *Cache {
	if capacityPages < 8 {
		capacityPages = 8
	}
	c := &Cache{
		env:       env,
		d:         d,
		readahead: readaheadMaxPages,
		capacity:  capacityPages,
		kick:      sim.NewCond(env),
	}
	w := &writeback{c: c}
	w.stepFn = w.step
	env.After(0, w.stepFn)
	return c
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// DirtyPages returns the current number of dirty pages.
func (c *Cache) DirtyPages() int { return c.pages.dirty }

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
	if rs != nil {
		if first == rs.nextPage || (first < rs.nextPage && last > rs.nextPage) {
			rs.window *= 2
			if rs.window == 0 {
				rs.window = 4
			}
			if rs.window > c.readahead {
				rs.window = c.readahead
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

// fill is a fetch in flight, allocated with its step closure and its disk
// request: pages [first, last) are pending on ev until req completes.
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
			c.pages.setDirty(pg, c.env.Now())
			if c.pages.dirty == 1 {
				c.kick.Broadcast() // unpark the writeback daemon
			}
		}
	}
	// Dirty-ratio throttling, Linux balance_dirty_pages style: a writer that
	// pushes the cache past the hard limit performs writeback itself, which
	// is what couples write-heavy workloads to disk speed when memory is
	// scarce.
	if float64(c.pages.dirty) > dirtyHardRatio*float64(c.capacity) {
		c.stats.ThrottleStalls++
		c.flushAndWait(p, int(dirtyHardRatio*float64(c.capacity)/2))
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
	if pg.dirty {
		c.pages.setClean(pg)
	}
	c.pages.del(pg.num)
	// Recycle the struct (see the package comment). num is left as it is
	// until the struct is reused, so a walk can step past a page it removed.
	pg.pending = nil
	pg.next = c.free
	c.free = pg
}

// dirtyRunAround returns the maximal contiguous run [lo, hi) of dirty page
// numbers containing n, capped at the block layer's request ceiling.
func (c *Cache) dirtyRunAround(n int64) (lo, hi int64) {
	maxPages := int64(disk.MaxReqSectors / PageSectors)
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

// writeback is the background flusher: step, bound once in New, runs in the
// event slots a flusher process would resume in, and parks no goroutine.
type writeback struct {
	c      *Cache
	f      flush
	inline bool // step is registering on a request (see step)
	stepFn func()
}

// step carries the flusher on. It waits for the flush's next request. After
// a flush down it flushes, in one round, the pages dirtied dirtyExpire or
// more ago; after that, or at the start, it parks on kick while the cache is
// clean (so a drained simulation ends), or else sleeps writebackInterval
// with the next flush down set: above the background ratio, to half of it.
// Pages below the ratio age until discarded, synced or expired. OnComplete
// runs step at once on a completed request: inline makes that a loop turn.
func (w *writeback) step() {
	if w.inline {
		w.inline = false
		return
	}
	for c := w.c; ; {
		if r := w.f.next(); r != nil {
			w.inline = true
			c.d.OnComplete(r, w.stepFn)
			if w.inline { // r is in flight: step runs again when it completes
				w.inline = false
				return
			}
		} else if w.f.cutoff == math.MaxInt64 { // a flush down is done
			w.f = flush{c: c, cutoff: c.env.Now() - dirtyExpire, rounds: 1}
		} else if c.pages.dirty == 0 {
			c.kick.Then(w.stepFn)
			return
		} else {
			bg := dirtyBGRatio * float64(c.capacity)
			w.f = c.flushDown(int(bg), int(bg/2))
			c.env.After(writebackInterval, w.stepFn)
			return
		}
	}
}

// flush is the one path that writes dirty pages back and waits for them:
// Sync and a throttled writer drive it from a process, the flusher from
// callbacks. next writes in rounds of flushRuns, handing out each round's
// requests in order; once they are waited for, a round starts while rounds
// are left and more than target (start, at first) pages are dirty.
type flush struct {
	c      *Cache
	start  int             // dirty pages the first round needs more than
	target int             // dirty pages to leave
	cutoff time.Duration   // write only pages dirtied at or before this
	rounds int             // rounds left to start
	reqs   []*disk.Request // the round's requests not yet handed out
}

// flushDown returns the flush from more than start dirty pages to target.
func (c *Cache) flushDown(start, target int) flush {
	return flush{c: c, start: start, target: target, cutoff: math.MaxInt64, rounds: math.MaxInt}
}

// next returns the next request to wait for, or nil when the flush is done.
func (f *flush) next() *disk.Request {
	if len(f.reqs) == 0 {
		if f.rounds == 0 || f.c.pages.dirty <= f.start || f.cutoff < 0 { // < 0: nothing is old enough
			return nil
		}
		f.rounds--
		f.start = f.target
		if f.reqs = f.c.flushRuns(f.c.pages.dirty-f.target, f.cutoff); len(f.reqs) == 0 {
			return nil // a round that writes nothing ends the flush
		}
	}
	r := f.reqs[0]
	f.reqs = f.reqs[1:]
	return r
}

// flushAndWait flushes down to target dirty pages, blocking p until done.
func (c *Cache) flushAndWait(p *sim.Proc, target int) {
	f := c.flushDown(target, target)
	for r := f.next(); r != nil; r = f.next() {
		c.d.Wait(p, r)
	}
}

// flushRuns walks the dirty pages in page order, clean-marks up to limit
// that have no fill in flight and were dirtied at or before cutoff, and
// writes them back as contiguous runs capped at the block layer's request
// ceiling — writeback's characteristic large sequential bursts. It returns
// the requests in submission order.
func (c *Cache) flushRuns(limit int, cutoff time.Duration) []*disk.Request {
	maxRun := disk.MaxReqSectors / PageSectors
	var reqs []*disk.Request
	var start int64
	var stage disk.Stage
	run := 0 // pages in the run starting at start
	for pg := c.pages.next(dirtyBits, 0, math.MaxInt64); pg != nil && limit > 0; pg = c.pages.next(dirtyBits, pg.num+1, math.MaxInt64) {
		if pg.pending != nil || pg.dirtyAt > cutoff {
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
		c.pages.setClean(pg)
		limit--
	}
	if run > 0 {
		reqs = append(reqs, c.writeRun(start, run, stage))
	}
	return reqs
}

// Sync flushes every dirty page and blocks p until the writes complete. A
// page dirtied under a fill in flight cannot be written before the fill
// lands, and a flush ends when all it finds dirty are such pages: Sync then
// waits for the lowest one's fill and flushes again.
func (c *Cache) Sync(p *sim.Proc) {
	for c.flushAndWait(p, 0); c.pages.dirty > 0; c.flushAndWait(p, 0) {
		c.pages.next(dirtyBits, 0, math.MaxInt64).pending.Wait(p)
	}
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
	if pg := c.pages.next(dirtyBits, first, last); pg != nil {
		return max(pg.num*PageSectors, sector)
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
	for pg := c.pages.next(residentBits, first, last); pg != nil; pg = c.pages.next(residentBits, pg.num+1, last) {
		if pg.pending != nil {
			continue
		}
		if pg.dirty {
			c.stats.DiscardedDirty++
		}
		c.remove(pg)
	}
}
