// Package iostat reimplements the disk-statistics reporting of iostat(1),
// the tool the paper used for all of its measurements. A Monitor samples the
// cumulative diskstats counters of one or more device groups at a fixed
// interval of virtual time and derives the exact metrics of the paper's
// Table 4:
//
//	rMB/s, wMB/s  — megabytes read/written per second
//	%util         — fraction of the interval the device was busy
//	await         — mean time from request arrival to completion (ms)
//	svctm         — mean device service time per request (ms)
//	avgrq-sz      — mean request size, in 512-byte sectors
//
// The paper's per-scenario numbers aggregate the three HDFS disks and the
// three MapReduce-intermediate disks of each node across the cluster;
// Monitor's groups provide the same aggregation: counters are summed across
// member devices before the interval metrics are derived (so %util is the
// mean busy fraction of the group's devices).
package iostat

import (
	"fmt"
	"iter"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
	"iochar/internal/stats"
)

// Sample is one interval's derived metrics.
type Sample struct {
	T       time.Duration // end of the interval
	RMBs    float64
	WMBs    float64
	Util    float64 // percent, 0..100
	AwaitMs float64
	SvctmMs float64
	WaitMs  float64 // await - svctm: pure queueing delay (paper §3.2)
	AvgrqSz float64 // sectors
}

// Report accumulates the per-interval series for one device group.
type Report struct {
	Name    string
	RMBs    *stats.Series
	WMBs    *stats.Series
	Util    *stats.Series
	AwaitMs *stats.Series
	SvctmMs *stats.Series
	WaitMs  *stats.Series
	AvgrqSz *stats.Series

	// UtilPool pools per-device %util samples: one sample per member device
	// per interval, rather than the group average. Distribution statistics
	// like the paper's ">90%util ratio" (Tables 6-7) must be computed here
	// — averaging 30 disks first would erase exactly the peaks those
	// tables count.
	UtilPool *stats.Series

	// Totals over the whole monitored run.
	TotalReadBytes    uint64
	TotalWrittenBytes uint64
	TotalReads        uint64
	TotalWrites       uint64

	// Hists holds per-request distributions, which the run folds from its
	// disk log (core.DiskLog): the series above answer Table 4 with interval
	// means, these the tail questions of the paper's §3.2 (p95/p99 await).
	Hists *Hists
}

// Hists are per-request latency and size distributions for one device group,
// folded from every completed request. Unlike the interval series, which
// average over whole seconds, they see each request, so tail percentiles
// are exact up to bucket width.
type Hists struct {
	Await *stats.Histogram // residence time per request (await), milliseconds
	Svctm *stats.Histogram // device service time per request, milliseconds
	Size  *stats.Histogram // request size, sectors

	// Exact extrema and counts, since the histograms quantize to bucket
	// upper bounds.
	AwaitMaxMs float64
	SvctmMaxMs float64
	SizeMax    float64
	Requests   uint64
}

// NewHists builds empty distributions sized for the simulated drives:
// latencies from 10 µs to 10 s, request sizes from 1 sector to twice the
// 512 KiB merge ceiling.
func NewHists() *Hists {
	return &Hists{
		Await: stats.NewHistogram(0.01, 10_000, 48),
		Svctm: stats.NewHistogram(0.01, 10_000, 48),
		Size:  stats.NewHistogram(1, 2048, 24),
	}
}

// Observe folds one completed request into the distributions.
func (h *Hists) Observe(c disk.Completion) {
	awaitMs := (c.Done - c.Arrived).Seconds() * 1000
	svctmMs := (c.Done - c.Start).Seconds() * 1000
	size := float64(c.Count)
	h.Await.Observe(awaitMs)
	h.Svctm.Observe(svctmMs)
	h.Size.Observe(size)
	if awaitMs > h.AwaitMaxMs {
		h.AwaitMaxMs = awaitMs
	}
	if svctmMs > h.SvctmMaxMs {
		h.SvctmMaxMs = svctmMs
	}
	if size > h.SizeMax {
		h.SizeMax = size
	}
	h.Requests++
}

func newReport(name string) *Report {
	return &Report{
		Name:     name,
		RMBs:     stats.NewSeries(name + ".rMB/s"),
		WMBs:     stats.NewSeries(name + ".wMB/s"),
		Util:     stats.NewSeries(name + ".%util"),
		AwaitMs:  stats.NewSeries(name + ".await"),
		SvctmMs:  stats.NewSeries(name + ".svctm"),
		WaitMs:   stats.NewSeries(name + ".wait"),
		AvgrqSz:  stats.NewSeries(name + ".avgrq-sz"),
		UtilPool: stats.NewSeries(name + ".%util-per-disk"),
	}
}

func (r *Report) add(s Sample) {
	r.RMBs.Add(s.T, s.RMBs)
	r.WMBs.Add(s.T, s.WMBs)
	r.Util.Add(s.T, s.Util)
	r.AwaitMs.Add(s.T, s.AwaitMs)
	r.SvctmMs.Add(s.T, s.SvctmMs)
	r.WaitMs.Add(s.T, s.WaitMs)
	r.AvgrqSz.Add(s.T, s.AvgrqSz)
}

// group is a named set of devices sampled together.
type group struct {
	disks   []*disk.Disk
	last    disk.Stats
	lastPer []disk.Stats // per-device snapshots for the pooled series
	lastAt  time.Duration
	report  *Report
}

// combined sums the cumulative counters across the group's devices.
func (g *group) combined() disk.Stats {
	var out disk.Stats
	for _, d := range g.disks {
		s := d.Stats()
		out.ReadsCompleted += s.ReadsCompleted
		out.ReadsMerged += s.ReadsMerged
		out.SectorsRead += s.SectorsRead
		out.TimeReading += s.TimeReading
		out.WritesCompleted += s.WritesCompleted
		out.WritesMerged += s.WritesMerged
		out.SectorsWritten += s.SectorsWritten
		out.TimeWriting += s.TimeWriting
		out.IOTicks += s.IOTicks
	}
	return out
}

// Derive computes one interval's metrics from a pair of cumulative counter
// snapshots over elapsed time across ndev devices. It is exported because it
// is precisely the iostat(1) arithmetic, useful on raw counters too.
func Derive(prev, cur disk.Stats, elapsed time.Duration, ndev int) Sample {
	if ndev <= 0 {
		ndev = 1
	}
	sec := elapsed.Seconds()
	if sec <= 0 {
		return Sample{}
	}
	dr := cur.ReadsCompleted - prev.ReadsCompleted
	dw := cur.WritesCompleted - prev.WritesCompleted
	dsr := cur.SectorsRead - prev.SectorsRead
	dsw := cur.SectorsWritten - prev.SectorsWritten
	dtr := cur.TimeReading - prev.TimeReading
	dtw := cur.TimeWriting - prev.TimeWriting
	dticks := cur.IOTicks - prev.IOTicks

	s := Sample{
		RMBs: float64(dsr) * disk.SectorSize / (1 << 20) / sec,
		WMBs: float64(dsw) * disk.SectorSize / (1 << 20) / sec,
		Util: float64(dticks) / (float64(elapsed) * float64(ndev)) * 100,
	}
	if n := dr + dw; n > 0 {
		// Computed in float seconds: sub-millisecond precision matters at
		// simulation scale even though iostat prints milliseconds.
		s.AwaitMs = (dtr + dtw).Seconds() * 1000 / float64(n)
		s.SvctmMs = dticks.Seconds() * 1000 / float64(n)
		s.AvgrqSz = float64(dsr+dsw) / float64(n)
	}
	if s.WaitMs = s.AwaitMs - s.SvctmMs; s.WaitMs < 0 {
		s.WaitMs = 0
	}
	return s
}

// Monitor periodically samples device groups. Create with NewMonitor, add
// groups, then Start it from simulation context; Stop ends sampling and
// flushes a final partial interval.
type Monitor struct {
	interval time.Duration
	groups   []*group
	stopped  bool
	started  bool
}

// NewMonitor creates a monitor with the given sampling interval (the paper
// used iostat's interval mode; 1s is the conventional choice).
func NewMonitor(interval time.Duration) *Monitor {
	if interval <= 0 {
		panic("iostat: non-positive interval")
	}
	return &Monitor{interval: interval}
}

// AddGroup registers a named device group. Panics on duplicates or after
// Start, both of which indicate mis-wiring.
func (m *Monitor) AddGroup(name string, disks ...*disk.Disk) {
	if m.started {
		panic("iostat: AddGroup after Start")
	}
	if m.Report(name) != nil {
		panic(fmt.Sprintf("iostat: duplicate group %q", name))
	}
	if len(disks) == 0 {
		panic(fmt.Sprintf("iostat: empty group %q", name))
	}
	g := &group{disks: disks, lastPer: make([]disk.Stats, len(disks)), report: newReport(name)}
	m.groups = append(m.groups, g)
}

// Start begins sampling in env, one After chain with a link per
// interval. Call at most once.
func (m *Monitor) Start(env *sim.Env) {
	if m.started {
		panic("iostat: Start called twice")
	}
	m.started = true
	now := env.Now()
	for _, g := range m.groups {
		g.last = g.combined()
		g.lastAt = now
	}
	var wait func()
	wait = func() {
		if !m.stopped {
			env.After(m.interval, func() { m.sampleAll(env.Now()); wait() })
		}
	}
	env.After(0, wait)
}

// Stop ends sampling; a final partial interval is flushed if at least a
// tenth of the interval has elapsed since the last sample (shorter tails
// produce noisy rate estimates and are dropped, as iostat users do by
// ignoring the last line). The run totals are always refreshed from the
// final counters, dropped tail or not — I/O completing in the last sliver of
// a run must still count toward whole-run volume.
func (m *Monitor) Stop(now time.Duration) {
	if m.stopped {
		return
	}
	m.stopped = true
	for _, g := range m.groups {
		if now-g.lastAt >= m.interval/10 {
			m.sampleGroup(g, now)
		} else {
			g.refreshTotals(g.combined())
		}
	}
}

func (m *Monitor) sampleAll(now time.Duration) {
	if m.stopped {
		return
	}
	for _, g := range m.groups {
		m.sampleGroup(g, now)
	}
}

func (m *Monitor) sampleGroup(g *group, now time.Duration) {
	cur := g.combined()
	s := Derive(g.last, cur, now-g.lastAt, len(g.disks))
	s.T = now
	g.report.add(s)
	for i, d := range g.disks {
		ds := d.Stats()
		per := Derive(g.lastPer[i], ds, now-g.lastAt, 1)
		g.report.UtilPool.Add(now, per.Util)
		g.lastPer[i] = ds
	}
	g.last = cur
	g.lastAt = now
	g.refreshTotals(cur)
}

// refreshTotals updates the report's whole-run totals from a combined
// counter snapshot.
func (g *group) refreshTotals(cur disk.Stats) {
	r := g.report
	r.TotalReadBytes = cur.SectorsRead * disk.SectorSize
	r.TotalWrittenBytes = cur.SectorsWritten * disk.SectorSize
	r.TotalReads = cur.ReadsCompleted
	r.TotalWrites = cur.WritesCompleted
}

// Groups yields every group's report and devices, in the order the groups
// were added.
func (m *Monitor) Groups() iter.Seq2[*Report, []*disk.Disk] {
	return func(yield func(*Report, []*disk.Disk) bool) {
		for _, g := range m.groups {
			if !yield(g.report, g.disks) {
				return
			}
		}
	}
}

// Report returns the accumulated report for a group, or nil if unknown.
func (m *Monitor) Report(name string) *Report {
	for _, g := range m.groups {
		if g.report.Name == name {
			return g.report
		}
	}
	return nil
}
