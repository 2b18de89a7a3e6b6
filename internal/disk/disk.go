// Package disk models a mechanical hard drive together with the Linux block
// layer that feeds it: a request queue with an elevator (LOOK) scheduler,
// back/front merging of contiguous requests, and /proc/diskstats-compatible
// accounting. Service times follow the classic seek + rotation + transfer
// decomposition; the default parameters are the Seagate ST1000NM0011
// datasheet values used in the paper's testbed (7200 RPM, 8.5 ms average
// seek, 4.2 ms average rotational latency, 150 MB/s sustained transfer).
//
// The model is timing-only: callers address sectors, not bytes. Data
// contents live in the filesystem layers above (internal/pagecache,
// internal/localfs), which is also where integrity is enforced.
package disk

import (
	"fmt"
	"time"

	"iochar/internal/sim"
)

// SectorSize is the fixed sector size in bytes, matching the paper's
// avgrq-sz unit ("the size of sector is 512B").
const SectorSize = 512

// Op distinguishes reads from writes.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Stage identifies the MapReduce pipeline stage that issued a request, for
// per-stage physical attribution (the paper's §3.3 decomposition of disk
// traffic into intermediate-data and HDFS traffic, at block-trace
// resolution). StageNone marks untagged traffic.
type Stage uint8

// Pipeline stages. The four named stages are the ones the paper's workloads
// exercise: map-side/reduce-side spills, multi-pass merges, shuffle serving,
// and HDFS block I/O (input reads, output and replication writes). StageScrub
// tags the background checksum scrubber's verification reads, so scrub
// traffic is separable from foreground I/O in traces and attribution.
const (
	StageNone Stage = iota
	StageHDFS
	StageSpill
	StageMerge
	StageShuffle
	StageScrub
	// StageMeta tags master metadata I/O: the NameNode's edit log and
	// fsimage checkpoints and the JobTracker's job journal. Nonzero only
	// when master recovery is modeled.
	StageMeta

	numStages
)

func (s Stage) String() string {
	switch s {
	case StageHDFS:
		return "hdfs"
	case StageSpill:
		return "spill"
	case StageMerge:
		return "merge"
	case StageShuffle:
		return "shuffle"
	case StageScrub:
		return "scrub"
	case StageMeta:
		return "meta"
	default:
		return "-"
	}
}

// NumStages is the number of distinct Stage values, for dense per-stage
// accumulator arrays.
const NumStages = int(numStages)

// ParseStage is the inverse of Stage.String. "-" and "" parse as StageNone.
func ParseStage(s string) (Stage, error) {
	switch s {
	case "", "-":
		return StageNone, nil
	case "hdfs":
		return StageHDFS, nil
	case "spill":
		return StageSpill, nil
	case "merge":
		return StageMerge, nil
	case "shuffle":
		return StageShuffle, nil
	case "scrub":
		return StageScrub, nil
	case "meta":
		return StageMeta, nil
	}
	return StageNone, fmt.Errorf("disk: unknown stage %q", s)
}

// Sched selects the request scheduler.
type Sched uint8

// Available schedulers. LOOK is the default and mirrors Linux's elevator
// behaviour closely enough for characterization; FIFO exists for ablation.
const (
	SchedLOOK Sched = iota
	SchedFIFO
)

// Params describes a drive and its block-layer configuration.
type Params struct {
	Name       string
	Sectors    int64         // total addressable sectors
	MinSeek    time.Duration // track-to-track seek
	MaxSeek    time.Duration // full-stroke seek
	RPM        int           // spindle speed
	TransferBC int64         // sustained transfer, bytes/second
	MaxReqSect int           // merge ceiling per request, in sectors (Linux max_sectors_kb)
	Scheduler  Sched
	NoMerge    bool // disable request merging (ablation)
	// SlowFactor degrades every service time by this multiplier (fault
	// injection: a failing drive doing internal retries, or a cold spare
	// rebuilding). 0 or 1 means healthy. Applied outside the device model,
	// so fail-slow faults degrade flash and mechanical drives alike.
	SlowFactor float64
	// SSD, when non-nil, selects the flash device model (per-op latency +
	// bandwidth + channel parallelism) instead of the mechanical one; the
	// mechanical fields (MinSeek/MaxSeek/RPM/TransferBC) are then ignored.
	SSD *SSDParams
}

// SeagateST1000NM0011 returns the paper's drive: 1 TB, 7200 RPM, 8.5 ms
// average seek, 150 MB/s sustained transfer, 512 KiB max request.
//
// MinSeek/MaxSeek are chosen so the mean seek over uniformly random
// distances equals the 8.5 ms datasheet average under the square-root seek
// curve used by Service (E[sqrt(U)] = 2/3).
func SeagateST1000NM0011() Params {
	return Params{
		Name:       "ST1000NM0011",
		Sectors:    2_000_000_000, // ~1 TB
		MinSeek:    500 * time.Microsecond,
		MaxSeek:    12500 * time.Microsecond, // 0.5 + (8.5-0.5)*3/2
		RPM:        7200,
		TransferBC: 150 << 20,
		MaxReqSect: 1024, // 512 KiB
		Scheduler:  SchedLOOK,
	}
}

// Stats mirrors the cumulative counters of /proc/diskstats that iostat
// consumes. All times are virtual.
type Stats struct {
	ReadsCompleted  uint64
	ReadsMerged     uint64
	SectorsRead     uint64
	TimeReading     time.Duration // total residence time of completed reads
	WritesCompleted uint64
	WritesMerged    uint64
	SectorsWritten  uint64
	TimeWriting     time.Duration // total residence time of completed writes
	IOTicks         time.Duration // time the device was busy
	WeightedTicks   time.Duration // integral of in-flight requests over time
}

// Request is one block-layer request. It may absorb contiguous requests by
// merging; completion fires a single event that wakes every contributor.
type Request struct {
	Op     Op
	Sector int64
	Count  int   // sectors
	Stage  Stage // pipeline stage of the first (absorbing) sub-request

	arrived    time.Duration
	merged     int       // sub-requests merged into this one
	completion sim.Event // fired once, for the request and every merged part
}

// end returns the first sector past the request.
func (r *Request) end() int64 { return r.Sector + int64(r.Count) }

// Disk is a simulated drive. Create with New; its channels service
// submitted requests for as long as the environment runs.
type Disk struct {
	P   Params
	env *sim.Env

	queue        []*Request
	inflight     int
	work         *sim.Cond
	headPos      int64 // sector under the head after the last request
	ascend       bool  // LOOK direction
	busy         bool
	active       int // requests in service, at most one per channel
	lastBusy     time.Duration
	lastWeighted time.Duration

	stats Stats
	model DeviceModel

	// obs are the completion observers (block-level tracing, as blktrace
	// would provide — see internal/trace — plus latency histograms in
	// internal/iostat). Every completed request fans out to all of them.
	obs       []observer
	nextObsID uint64
}

// Completion describes one completed block-layer request as delivered to
// observers. A merged request completes as a single Completion; Arrived is
// the arrival of its first sub-request, so Done-Arrived is the residence
// time iostat calls await and Done-Start is the pure device service time
// (svctm).
type Completion struct {
	Op     Op
	Sector int64
	Count  int   // sectors
	Stage  Stage // pipeline stage of the absorbing sub-request

	Arrived time.Duration // submission time of the first merged sub-request
	Start   time.Duration // when the device began servicing the request
	Done    time.Duration // completion time
}

type observer struct {
	id uint64
	fn func(Completion)
}

// Subscribe registers fn to observe every completed request and returns a
// function that removes the subscription. Any number of observers may be
// attached concurrently; each completion is delivered to all of them in
// subscription order. With no observers attached the completion path does no
// extra work.
//
// The simulation is strictly serialized, so observers need no locking.
// Unsubscribing from inside an observer callback is safe; it takes effect
// for the next completion. Unsubscribe is idempotent.
func (d *Disk) Subscribe(fn func(Completion)) (unsubscribe func()) {
	if fn == nil {
		panic("disk: Subscribe with nil observer")
	}
	id := d.nextObsID
	d.nextObsID++
	d.obs = append(d.obs, observer{id: id, fn: fn})
	return func() {
		for i := range d.obs {
			if d.obs[i].id != id {
				continue
			}
			// Copy-on-write so a dispatch loop holding the old slice
			// header is unaffected by the removal.
			next := make([]observer, 0, len(d.obs)-1)
			next = append(next, d.obs[:i]...)
			next = append(next, d.obs[i+1:]...)
			d.obs = next
			return
		}
	}
}

// New creates a disk and starts its channel(s): one for a single-channel
// (mechanical) device, one per channel for flash.
func New(env *sim.Env, p Params) *Disk {
	if p.MaxReqSect <= 0 {
		p.MaxReqSect = 1024
	}
	var model DeviceModel
	if p.SSD != nil {
		s := *p.SSD
		if p.Sectors <= 0 || s.ReadBC <= 0 || s.WriteBC <= 0 || s.ReadLatency < 0 || s.WriteLatency < 0 {
			panic("disk: invalid SSD params for " + p.Name)
		}
		model = ssdModel{s: s}
	} else {
		if p.Sectors <= 0 || p.RPM <= 0 || p.TransferBC <= 0 {
			panic("disk: invalid params for " + p.Name)
		}
		model = newHDDModel(p)
	}
	d := &Disk{
		P:      p,
		env:    env,
		work:   sim.NewCond(env),
		ascend: true,
		model:  model,
	}
	for i := 0; i < model.Channels(); i++ {
		c := &channel{d: d}
		c.nextFn, c.doneFn = c.next, c.done
		env.After(0, c.nextFn)
	}
	return d
}

// Class reports the device technology, for per-class iostat grouping.
func (d *Disk) Class() Class { return d.model.Class() }

// Stats returns a copy of the cumulative counters.
func (d *Disk) Stats() Stats {
	// Fold the in-progress busy period in, so samplers see smooth %util.
	s := d.stats
	if d.busy {
		s.IOTicks += d.env.Now() - d.lastBusy
	}
	return s
}

// InFlight returns the number of submitted, incomplete logical requests
// (merged sub-requests count individually).
func (d *Disk) InFlight() int { return d.inflight }

// Submit enqueues a request without blocking. The returned Request can be
// waited on with Wait. Count must be positive and the range in-bounds.
func (d *Disk) Submit(op Op, sector int64, count int) *Request {
	return d.SubmitStaged(op, sector, count, StageNone)
}

// SubmitStaged is Submit with a pipeline-stage tag attached to the request.
// When contiguous requests from different stages merge, the absorbing
// request's stage wins — same as Linux, where a merged bio inherits the
// identity of the request it merged into.
func (d *Disk) SubmitStaged(op Op, sector int64, count int, stage Stage) *Request {
	if count <= 0 {
		panic(fmt.Sprintf("disk %s: non-positive request size %d", d.P.Name, count))
	}
	if sector < 0 || sector > d.P.Sectors-int64(count) { // sector+count may overflow
		panic(fmt.Sprintf("disk %s: request [%d,+%d) out of bounds (disk has %d sectors)", d.P.Name, sector, count, d.P.Sectors))
	}
	d.accrueWeighted()
	d.inflight++
	if !d.P.NoMerge {
		if r := d.tryMerge(op, sector, count); r != nil {
			return r
		}
	}
	r := &Request{Op: op, Sector: sector, Count: count, Stage: stage, arrived: d.env.Now()}
	r.completion.Init(d.env)
	d.queue = append(d.queue, r)
	d.work.Broadcast()
	return r
}

// tryMerge attempts to extend a queued request with a contiguous range of
// the same operation, honouring the per-request size ceiling. It returns the
// absorbing request, or nil if no merge applies.
func (d *Disk) tryMerge(op Op, sector int64, count int) *Request {
	for _, q := range d.queue {
		if q.Op != op || q.Count+count > d.P.MaxReqSect {
			continue
		}
		if q.end() == sector { // back merge
			q.Count += count
			q.merged++
			d.bumpMerge(op)
			return q
		}
		if sector+int64(count) == q.Sector { // front merge
			q.Sector = sector
			q.Count += count
			q.merged++
			d.bumpMerge(op)
			return q
		}
	}
	return nil
}

func (d *Disk) bumpMerge(op Op) {
	if op == Read {
		d.stats.ReadsMerged++
	} else {
		d.stats.WritesMerged++
	}
}

// Wait blocks p until r completes.
func (d *Disk) Wait(p *sim.Proc, r *Request) { r.completion.Wait(p) }

// OnComplete runs fn when r completes, in the event slot a process waiting
// on r from this moment would be resumed in (sim.Event.Then), or at once if
// r has completed. fn must not block.
func (d *Disk) OnComplete(r *Request, fn func()) { r.completion.Then(fn) }

// Do submits a request and blocks until it completes — the common
// synchronous path.
func (d *Disk) Do(p *sim.Proc, op Op, sector int64, count int) {
	r := d.Submit(op, sector, count)
	r.completion.Wait(p)
}

// channel is one of a device's Channels() service loops — a mechanical
// drive's single head assembly, or one flash channel — as a pair of
// callbacks: next puts a request in service or waits for one, done
// completes it and calls next. Neither waits part-way through, so a channel
// needs no process; each callback runs in the event slot the channel's
// process resume would have taken.
type channel struct {
	d      *Disk
	r      *Request      // in service
	start  time.Duration // when r entered service
	nextFn func()        // c.next and c.done, bound once: serving a request allocates no closure
	doneFn func()
}

// next puts the next queued request in service, or waits on d.work for one.
// Busy time (IOTicks, hence %util) covers any interval with at least one
// request in service: a saturated 8-channel SSD is 100% utilized, not 800%.
func (c *channel) next() {
	d := c.d
	if len(d.queue) == 0 {
		if d.active == 0 {
			d.setBusy(false)
		}
		d.work.Then(c.nextFn)
		return
	}
	if d.active == 0 {
		d.setBusy(true)
	}
	d.active++
	c.r, c.start = d.pick(), d.env.Now()
	d.env.After(d.serviceFor(c.r.Op, c.r.Sector, c.r.Count), c.doneFn)
}

func (c *channel) done() {
	c.d.active--
	c.d.complete(c.r, c.start)
	c.next()
}

// pick removes and returns the next request per the configured scheduler.
func (d *Disk) pick() *Request {
	idx := 0
	if d.P.Scheduler == SchedLOOK && len(d.queue) > 1 {
		idx = d.pickLOOK()
	}
	r := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	return r
}

// pickLOOK chooses the nearest request at or past the head in the current
// direction, reversing direction when none remains. The direction flip
// commits only together with a dispatch from the reversed sweep: flipping
// before knowing the reversed scan succeeds (as an earlier version did)
// leaves the elevator pointed the wrong way on the fallback path, and the
// fallback then dispatches queue[0] out of sweep order.
func (d *Disk) pickLOOK() int {
	if i := d.scanLOOK(d.ascend); i >= 0 {
		return i
	}
	if i := d.scanLOOK(!d.ascend); i >= 0 {
		d.ascend = !d.ascend
		return i
	}
	// Unreachable with a non-empty queue: every sector is at-or-above the
	// head or below it, so one of the two sweeps matches. Serve FIFO
	// without corrupting sweep state if it ever triggers.
	return 0
}

// scanLOOK returns the index of the queued request nearest the head in the
// given direction, or -1 when no request lies that way.
func (d *Disk) scanLOOK(ascending bool) int {
	best, bestDist := -1, int64(0)
	for i, q := range d.queue {
		var dist int64
		if ascending {
			dist = q.Sector - d.headPos
		} else {
			dist = d.headPos - q.Sector
		}
		if dist < 0 {
			continue
		}
		if best == -1 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// serviceFor prices one dispatched request given the current head position:
// model time × SlowFactor. The physics live in the device model (see
// DeviceModel); the fault-injection SlowFactor is applied on top, outside the
// model, so fail-slow degradation covers every device class.
func (d *Disk) serviceFor(op Op, sector int64, count int) time.Duration {
	t := d.model.Service(op, sector, d.headPos, count)
	if d.P.SlowFactor > 1 {
		t = time.Duration(float64(t) * d.P.SlowFactor)
	}
	return t
}

// SetSlowFactor changes the service-time degradation multiplier at runtime
// (fault injection: a drive going fail-slow mid-run, or recovering). Values
// at or below 1 restore healthy timing.
func (d *Disk) SetSlowFactor(f float64) { d.P.SlowFactor = f }

// complete finalizes accounting for r and wakes its waiters. start is the
// time the device began servicing r.
func (d *Disk) complete(r *Request, start time.Duration) {
	d.accrueWeighted()
	now := d.env.Now()
	d.headPos = r.end()
	// Linux semantics: a merged request completes as ONE request (merges
	// lower the I/O count, which is exactly what raises avgrq-sz), and its
	// residence time is accounted once, from first arrival to completion.
	residence := now - r.arrived
	if r.Op == Read {
		d.stats.ReadsCompleted++
		d.stats.SectorsRead += uint64(r.Count)
		d.stats.TimeReading += residence
	} else {
		d.stats.WritesCompleted++
		d.stats.SectorsWritten += uint64(r.Count)
		d.stats.TimeWriting += residence
	}
	d.inflight -= 1 + r.merged
	if len(d.obs) != 0 {
		c := Completion{
			Op:      r.Op,
			Sector:  r.Sector,
			Count:   r.Count,
			Stage:   r.Stage,
			Arrived: r.arrived,
			Start:   start,
			Done:    now,
		}
		// Snapshot the slice header: unsubscribing mid-dispatch replaces
		// d.obs (copy-on-write), leaving this loop's view intact.
		obs := d.obs
		for i := range obs {
			obs[i].fn(c)
		}
	}
	r.completion.Fire()
}

// setBusy maintains the IOTicks (busy time) integral.
func (d *Disk) setBusy(b bool) {
	now := d.env.Now()
	if d.busy {
		d.stats.IOTicks += now - d.lastBusy
	}
	d.busy = b
	d.lastBusy = now
}

// accrueWeighted maintains the in-flight integral (field 11 of diskstats).
func (d *Disk) accrueWeighted() {
	now := d.env.Now()
	d.stats.WeightedTicks += time.Duration(d.inflight) * (now - d.lastWeighted)
	d.lastWeighted = now
}
