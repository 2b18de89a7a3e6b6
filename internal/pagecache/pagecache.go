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
package pagecache

import (
	"slices"
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

// Cache is the page cache for one device. Create with New.
type Cache struct {
	env  *sim.Env
	d    *disk.Disk
	opts Options

	capacity int // pages
	pages    map[int64]*page
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
// writeback daemon.
func New(env *sim.Env, d *disk.Disk, capacityPages int, opts Options) *Cache {
	if capacityPages < 8 {
		capacityPages = 8
	}
	if opts.DirtyBGRatio <= 0 {
		opts.DirtyBGRatio = 0.10
	}
	if opts.DirtyHardRatio <= opts.DirtyBGRatio {
		opts.DirtyHardRatio = opts.DirtyBGRatio * 4
	}
	if opts.WritebackInterval <= 0 {
		opts.WritebackInterval = time.Second
	}
	if opts.ReadaheadMaxPages <= 0 {
		opts.ReadaheadMaxPages = 32
	}
	if opts.DirtyExpire <= 0 {
		opts.DirtyExpire = 30 * time.Second
	}
	c := &Cache{
		env:      env,
		d:        d,
		opts:     opts,
		capacity: capacityPages,
		pages:    make(map[int64]*page, capacityPages),
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
func (c *Cache) ResidentPages() int { return len(c.pages) }

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
	// with one submission (the block layer may merge runs further).
	var waits []*sim.Event
	runStart := int64(-1)
	flushRun := func(end int64) {
		if runStart < 0 {
			return
		}
		ev := c.fetch(runStart, end, stage)
		waits = append(waits, ev)
		runStart = -1
	}
	for n := first; n < last; n++ {
		if pg := c.lookup(n); pg != nil {
			c.stats.Hits++
			if pg.pending != nil {
				waits = append(waits, pg.pending)
			}
			flushRun(n)
			continue
		}
		c.stats.Misses++
		if runStart < 0 {
			runStart = n
		}
	}
	flushRun(last)

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

// fetch inserts pending pages [first,last) and submits one disk read for
// them, returning the completion event. Pages become clean residents once
// the read completes.
func (c *Cache) fetch(first, last int64, stage disk.Stage) *sim.Event {
	ev := sim.NewEvent(c.env)
	for n := first; n < last; n++ {
		pg := c.newPage(n)
		pg.stage = stage
		pg.pending = ev
		c.insert(pg)
	}
	req := c.d.SubmitStaged(disk.Read, first*PageSectors, int(last-first)*PageSectors, stage)
	c.env.Go("fill", func(p *sim.Proc) {
		c.d.Wait(p, req)
		for n := first; n < last; n++ {
			if pg, ok := c.pages[n]; ok && pg.pending == ev {
				pg.pending = nil
			}
		}
		ev.Fire()
	})
	return ev
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
	pg, ok := c.pages[n]
	if !ok {
		return nil
	}
	c.lru.moveToFront(pg)
	return pg
}

// insert adds a page, evicting from the LRU tail as needed.
func (c *Cache) insert(pg *page) {
	for len(c.pages) >= c.capacity {
		if !c.evictOne() {
			break // everything is pinned/dirty beyond help; overcommit briefly
		}
	}
	c.lru.pushFront(pg)
	c.pages[pg.num] = pg
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
	run := c.dirtyRunAround(oldestDirty.num)
	c.stats.EvictedDirty += uint64(len(run))
	c.flushRunAndDrop(run)
	return true
}

func (c *Cache) remove(pg *page) {
	c.lru.remove(pg)
	delete(c.pages, pg.num)
	if pg.dirty {
		c.dirty--
	}
	// Recycle the struct. Nothing holds page pointers across simulation
	// yields (the fill path re-looks pages up by number), so reuse is safe.
	pg.pending = nil
	pg.next = c.free
	c.free = pg
}

// dirtyRunAround returns the maximal contiguous run of dirty page numbers
// containing n, capped at the device's request ceiling.
func (c *Cache) dirtyRunAround(n int64) []int64 {
	maxPages := int64(c.d.P.MaxReqSect / PageSectors)
	lo := n
	for lo > n-maxPages {
		pg, ok := c.pages[lo-1]
		if !ok || !pg.dirty || pg.pending != nil {
			break
		}
		lo--
	}
	hi := n + 1
	for hi < lo+maxPages {
		pg, ok := c.pages[hi]
		if !ok || !pg.dirty || pg.pending != nil {
			break
		}
		hi++
	}
	run := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		run = append(run, i)
	}
	return run
}

// flushRunAndDrop writes a contiguous dirty run and removes the pages.
// Used under memory pressure; the caller is the cache-internal path, so the
// disk write is fire-and-forget (the request is already queued and counted).
func (c *Cache) flushRunAndDrop(run []int64) {
	stage := c.pages[run[0]].stage
	for _, n := range run {
		pg := c.pages[n]
		c.remove(pg)
	}
	c.stats.FlushedPages += uint64(len(run))
	c.d.SubmitStaged(disk.Write, run[0]*PageSectors, len(run)*PageSectors, stage)
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
	var nums []int64
	for n, pg := range c.pages {
		if pg.dirty && pg.pending == nil && pg.dirtyAt <= cutoff {
			nums = append(nums, n)
		}
	}
	if len(nums) == 0 {
		return
	}
	slices.Sort(nums)
	var reqs []*disk.Request
	for _, run := range clusterRuns(nums, c.d.P.MaxReqSect/PageSectors) {
		stage := c.pages[run[0]].stage
		for _, n := range run {
			pg := c.pages[n]
			pg.dirty = false
			c.dirty--
		}
		c.stats.FlushedPages += uint64(len(run))
		reqs = append(reqs, c.d.SubmitStaged(disk.Write, run[0]*PageSectors, len(run)*PageSectors, stage))
	}
	for _, r := range reqs {
		c.d.Wait(p, r)
	}
}

// clusterRuns groups sorted page numbers into contiguous runs capped at
// maxPages each.
func clusterRuns(nums []int64, maxPages int) [][]int64 {
	var runs [][]int64
	var cur []int64
	for _, n := range nums {
		if len(cur) > 0 && (n != cur[len(cur)-1]+1 || len(cur) >= maxPages) {
			runs = append(runs, cur)
			cur = nil
		}
		cur = append(cur, n)
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// flushDown flushes dirty pages (clean-marking them, keeping them resident)
// until at most target dirty pages remain. Runs are built by sorting the
// dirty page numbers and grouping contiguity, giving writeback its
// characteristic large sequential bursts.
func (c *Cache) flushDown(p *sim.Proc, target int) {
	for c.dirty > target {
		runs := c.dirtyRuns(c.dirty - target)
		if len(runs) == 0 {
			return
		}
		var reqs []*disk.Request
		for _, run := range runs {
			stage := c.pages[run[0]].stage
			for _, n := range run {
				pg := c.pages[n]
				pg.dirty = false
				c.dirty--
			}
			c.stats.FlushedPages += uint64(len(run))
			reqs = append(reqs, c.d.SubmitStaged(disk.Write, run[0]*PageSectors, len(run)*PageSectors, stage))
		}
		for _, r := range reqs {
			c.d.Wait(p, r)
		}
	}
}

// dirtyRuns returns up to limit dirty pages grouped into contiguous runs,
// each capped at the device request ceiling.
func (c *Cache) dirtyRuns(limit int) [][]int64 {
	if limit <= 0 || c.dirty == 0 {
		return nil
	}
	nums := make([]int64, 0, c.dirty)
	for n, pg := range c.pages {
		if pg.dirty && pg.pending == nil {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	if limit < len(nums) {
		nums = nums[:limit]
	}
	return clusterRuns(nums, c.d.P.MaxReqSect/PageSectors)
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
	for _, pg := range c.pages {
		if pg.pending != nil {
			continue
		}
		if pg.dirty {
			c.stats.DiscardedDirty++
		}
		c.remove(pg)
	}
}

// FirstDirtyInRange returns the device sector of the lowest-numbered dirty
// page overlapping [sector, sector+nsect), or -1 if every covered page is
// clean or absent. Crash semantics use it to find the flushed prefix of a
// file: bytes past the first dirty page never reached the platter.
func (c *Cache) FirstDirtyInRange(sector int64, nsect int) int64 {
	first, last := pageRange(sector, nsect)
	best := int64(-1)
	for n := first; n < last; n++ {
		if pg, ok := c.pages[n]; ok && pg.dirty {
			if best < 0 || n < best {
				best = n
			}
		}
	}
	if best < 0 {
		return -1
	}
	s := best * PageSectors
	if s < sector {
		s = sector
	}
	return s
}

// Discard drops the covered pages without writeback — the fate of deleted
// files (e.g. MapReduce intermediate data removed after the job). Dirty
// pages die here without ever generating disk traffic, which is how extra
// memory absorbs spill I/O.
func (c *Cache) Discard(sector int64, nsect int) {
	first, last := pageRange(sector, nsect)
	for n := first; n < last; n++ {
		if pg, ok := c.pages[n]; ok && pg.pending == nil {
			if pg.dirty {
				c.stats.DiscardedDirty++
			}
			c.remove(pg)
		}
	}
}
