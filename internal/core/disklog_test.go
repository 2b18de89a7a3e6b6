package core

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/iostat"
	"iochar/internal/stats"
	"iochar/internal/trace"
)

// A run is a log. A reference recorder, attached through TraceAttach,
// subscribes once to every disk of a run and keeps its completions; pure
// functions of that record rebuild every per-disk view: each group's iostat
// samples, UtilPool and totals (which the live Monitor samples from
// disk.Stats), and its Hists, the physical table and the -trace-out records
// (which the run derives from its own DiskLog). The differential below
// diffs each against what the run produced, interval by interval, with
// float ==. The reference reads neither disk.Stats, the Monitor nor the
// run's log: counts, sectors and residence come from the completions whose
// Done falls in an interval, busy time from the union of their service
// spans, group membership from the options.

// logged is one completion and the device that delivered it.
type logged struct {
	dev string
	c   disk.Completion
}

// refLog is the reference recorder's record of a run's disk completions.
type refLog struct {
	devs  []string                     // in attach order
	all   []logged                     // every completion, in delivery order
	byDev map[string][]disk.Completion // each device's, in Done order
}

func (l *refLog) attach(dev string, d *disk.Disk) {
	if l.byDev == nil {
		l.byDev = map[string][]disk.Completion{}
	}
	l.devs = append(l.devs, dev)
	d.Subscribe(func(c disk.Completion) {
		l.all = append(l.all, logged{dev, c})
		l.byDev[dev] = append(l.byDev[dev], c)
	})
}

// activity is what iostat reads of a device over a window (from, to]: the
// requests that completed in it and the time the device was busy in it.
type activity struct {
	reads, writes uint64
	sectR, sectW  uint64
	resR, resW    time.Duration // Σ Done − Arrived
	busy          time.Duration
}

func (a *activity) add(b activity) {
	a.reads += b.reads
	a.writes += b.writes
	a.sectR += b.sectR
	a.sectW += b.sectW
	a.resR += b.resR
	a.resW += b.resW
	a.busy += b.busy
}

// span is a closed stretch of virtual time.
type span struct{ from, to time.Duration }

// busySpans merges a device's service spans [Start, Done] into the disjoint
// periods it was busy, in time order. A mechanical drive serves one request
// at a time; flash channels overlap, and an instant counts once however
// many of them are busy.
func busySpans(cs []disk.Completion) []span {
	ss := make([]span, len(cs))
	for i, c := range cs {
		ss[i] = span{c.Start, c.Done}
	}
	slices.SortFunc(ss, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	var out []span
	for _, s := range ss {
		if n := len(out); n > 0 && s.from <= out[n-1].to {
			out[n-1].to = max(out[n-1].to, s.to)
			continue
		}
		out = append(out, s)
	}
	return out
}

// windows returns a device's activity in each window (bounds[k], bounds[k+1]].
// A busy period that crosses a bound is split at it.
func windows(cs []disk.Completion, bounds []time.Duration) []activity {
	busy := busySpans(cs)
	out := make([]activity, len(bounds)-1)
	i := 0
	for k := range out {
		from, to := bounds[k], bounds[k+1]
		a := &out[k]
		for ; i < len(cs) && cs[i].Done <= to; i++ {
			c := cs[i]
			if c.Done <= from {
				continue
			}
			if c.Op == disk.Read {
				a.reads++
				a.sectR += uint64(c.Count)
				a.resR += c.Done - c.Arrived
			} else {
				a.writes++
				a.sectW += uint64(c.Count)
				a.resW += c.Done - c.Arrived
			}
		}
		for _, p := range busy {
			if lo, hi := max(p.from, from), min(p.to, to); hi > lo {
				a.busy += hi - lo
			}
		}
	}
	return out
}

// sampleOf applies iostat(1)'s arithmetic to activity summed over ndev
// devices during elapsed, ending at t.
func sampleOf(a activity, t, elapsed time.Duration, ndev int) iostat.Sample {
	sec := elapsed.Seconds()
	s := iostat.Sample{
		T:    t,
		RMBs: float64(a.sectR) * disk.SectorSize / (1 << 20) / sec,
		WMBs: float64(a.sectW) * disk.SectorSize / (1 << 20) / sec,
		Util: float64(a.busy) / (float64(elapsed) * float64(ndev)) * 100,
	}
	if n := a.reads + a.writes; n > 0 {
		s.AwaitMs = (a.resR + a.resW).Seconds() * 1000 / float64(n)
		s.SvctmMs = a.busy.Seconds() * 1000 / float64(n)
		s.AvgrqSz = float64(a.sectR+a.sectW) / float64(n)
	}
	s.WaitMs = max(0, s.AwaitMs-s.SvctmMs)
	return s
}

// sampleInstants returns the instants a monitor started at 0 samples at
// when stopped at stop: every multiple of iv up to stop, then stop itself
// unless it lands less than a tenth of an interval after the last of them,
// in which case that tail is dropped.
func sampleInstants(iv, stop time.Duration) (ts []time.Duration, dropped bool) {
	var last time.Duration
	for t := iv; t <= stop; t += iv {
		ts, last = append(ts, t), t
	}
	if stop-last >= iv/10 {
		return append(ts, stop), false
	}
	return ts, stop > last
}

// groupMembers works out the devices of every group a run monitors, in
// the order the monitor lists them, from the options and the fault plan
// alone: slave i holds "slave-%02d.hdfs0..2" and ".mr0..2", the master
// "master.meta0/1" when the master layers run.
func groupMembers(o Options) map[string][]string {
	o = o.withDefaults()
	split := map[string]string{}
	for _, ev := range o.Faults.Events {
		switch ev.Kind {
		case faults.KillNode, faults.KillDataNode:
			split[ev.Node] = "-victims"
		case faults.RestartNode, faults.RestartDataNode:
			if split[ev.Node] == "" {
				split[ev.Node] = "-recovering"
			}
		}
	}
	g := map[string][]string{}
	for i := range o.Slaves {
		node := fmt.Sprintf("slave-%02d", i)
		for r := range 3 {
			hdfs, mr := fmt.Sprintf("%s.hdfs%d", node, r), fmt.Sprintf("%s.mr%d", node, r)
			g[GroupHDFS] = append(g[GroupHDFS], hdfs)
			g[GroupMR] = append(g[GroupMR], mr)
			if o.IntermediateTier == disk.ClassSSD {
				g[GroupClassHDD] = append(g[GroupClassHDD], hdfs)
				g[GroupClassSSD] = append(g[GroupClassSSD], mr)
			}
			if len(split) > 0 {
				s := cmp.Or(split[node], "-survivors")
				g[GroupHDFS+s] = append(g[GroupHDFS+s], hdfs)
				g[GroupMR+s] = append(g[GroupMR+s], mr)
			}
		}
	}
	if o.MasterRecovery || o.Faults.HasMasterFaults() {
		g[GroupMasters] = []string{"master.meta0", "master.meta1"}
	}
	return g
}

// logRun is one run with the reference recorder attached.
type logRun struct {
	opts  Options
	rep   *RunReport
	log   refLog
	trace bytes.Buffer // what -trace-out writes: the run's log as CSV
	disks []*disk.Disk
}

// merges counts the requests the run's disks absorbed by merging, which a
// completion does not record: it shows the runs exercise merged requests.
func (r *logRun) merges() (n uint64) {
	for _, d := range r.disks {
		s := d.Stats()
		n += s.ReadsMerged + s.WritesMerged
	}
	return n
}

func runLogged(t *testing.T, w Workload, f Factors, opts Options) *logRun {
	t.Helper()
	r := &logRun{opts: opts}
	opts.TraceAttach = func(dev string, d *disk.Disk) {
		r.log.attach(dev, d)
		r.disks = append(r.disks, d)
	}
	var err error
	if r.rep, err = RunOne(w, f, opts); err != nil {
		t.Fatal(err)
	}
	sink := trace.NewStreamCollector(&r.trace)
	r.rep.Log.WriteTrace(sink, "")
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// stop is the instant the monitor stopped: the driver starts at 0, so it is
// the run's wall time.
func (r *logRun) stop() time.Duration { return r.rep.Wall }

// groups returns the live reports by group name.
func (r *logRun) groups() map[string]*iostat.Report {
	g := map[string]*iostat.Report{GroupHDFS: r.rep.HDFS, GroupMR: r.rep.MR}
	for name, rep := range r.rep.Groups {
		g[name] = rep
	}
	return g
}

// liveSample reads interval k back out of a report's series.
func liveSample(rep *iostat.Report, k int) iostat.Sample {
	p := func(s *stats.Series) float64 { return s.Points[k].V }
	return iostat.Sample{
		T: rep.Util.Points[k].T, RMBs: p(rep.RMBs), WMBs: p(rep.WMBs), Util: p(rep.Util),
		AwaitMs: p(rep.AwaitMs), SvctmMs: p(rep.SvctmMs), WaitMs: p(rep.WaitMs), AvgrqSz: p(rep.AvgrqSz),
	}
}

// diffStats is what one run's differential covered.
type diffStats struct {
	completions, intervals, groups, clean int
	onMasters, afterStop, inDroppedTail   int
	dropped                               bool
}

// diffAgainstLog checks that the run's DiskLog is the reference recorder's
// sequence, diffs every view of r against the reference's, each over its
// own window, and checks iostat's per-interval identities: Σ interval bytes
// = the totals at Stop, 0 ≤ %util ≤ 100, wait = max(0, await − svctm), and
// Little's law where it applies.
func diffAgainstLog(t *testing.T, r *logRun) diffStats {
	t.Helper()
	o := r.opts.withDefaults()
	stop := r.stop()
	ticks, dropped := sampleInstants(o.SampleInterval, stop)
	bounds := append([]time.Duration{0}, ticks...)
	if dropped {
		bounds = append(bounds, stop)
	}
	st := diffStats{completions: len(r.log.all), intervals: len(ticks), dropped: dropped}

	runLog := r.rep.Log
	if !slices.Equal(runLog.Devs, r.log.devs) || len(runLog.Entries) != len(r.log.all) {
		t.Fatalf("the run logged %d completions on %v, the recorder %d on %v", len(runLog.Entries), runLog.Devs, len(r.log.all), r.log.devs)
	}
	for i, e := range runLog.Entries {
		if want := r.log.all[i]; runLog.Devs[e.Dev] != want.dev || e.Completion != want.c {
			t.Fatalf("log entry %d: %s %+v, the recorder's %s %+v", i, runLog.Devs[e.Dev], e.Completion, want.dev, want.c)
		}
	}

	members := groupMembers(o)
	var wantDevs []string
	for _, g := range []string{GroupHDFS, GroupMR} {
		wantDevs = append(wantDevs, members[g]...)
	}
	wantDevs = append(wantDevs, members[GroupMasters]...)
	if slices.Sort(wantDevs); !slices.Equal(slices.Sorted(slices.Values(r.log.devs)), wantDevs) {
		t.Fatalf("the recorder reached %v, want every disk %v", r.log.devs, wantDevs)
	}
	acts := map[string][]activity{}
	for _, dev := range r.log.devs {
		acts[dev] = windows(r.log.byDev[dev], bounds)
	}

	live := r.groups()
	if got, want := slices.Sorted(maps.Keys(live)), slices.Sorted(maps.Keys(members)); !slices.Equal(got, want) {
		t.Fatalf("live groups %v, want %v", got, want)
	}
	st.groups = len(live)
	for name, devs := range members {
		rep := live[name]
		spanned := spannedBounds(r, devs, bounds)
		if rep.Util.Len() != len(ticks) || rep.UtilPool.Len() != len(ticks)*len(devs) {
			t.Errorf("%s: %d samples and %d per-disk points, want %d and %d", name, rep.Util.Len(), rep.UtilPool.Len(), len(ticks), len(ticks)*len(devs))
			continue
		}
		var total activity
		for k, at := range ticks {
			elapsed := at - bounds[k]
			var sum activity
			for i, dev := range devs {
				sum.add(acts[dev][k])
				want := stats.Point{T: at, V: sampleOf(acts[dev][k], at, elapsed, 1).Util}
				if got := rep.UtilPool.Points[k*len(devs)+i]; got != want {
					t.Errorf("%s: %s at %v: UtilPool %v, log %v", name, dev, at, got, want)
				}
				if want.V < 0 || want.V > 100 {
					t.Errorf("%s: %s at %v: %%util %v outside [0, 100]", name, dev, at, want.V)
				}
			}
			total.add(sum)
			got, want := liveSample(rep, k), sampleOf(sum, at, elapsed, len(devs))
			if got != want {
				t.Errorf("%s: interval (%v, %v]: live %+v, log %+v", name, bounds[k], at, got, want)
			}
			if got.Util < 0 || got.Util > 100 || got.WaitMs != max(0, got.AwaitMs-got.SvctmMs) {
				t.Errorf("%s: interval (%v, %v]: %%util %v, wait %v for await %v, svctm %v", name, bounds[k], at, got.Util, got.WaitMs, got.AwaitMs, got.SvctmMs)
			}
			// Little's law: with no request in flight across either bound,
			// the integral of requests in flight over the interval is the
			// residence of the ones that completed in it, so await is that
			// integral over their count.
			if n := sum.reads + sum.writes; n > 0 && !spanned[k] && !spanned[k+1] {
				st.clean++
				if area := inFlightArea(r, devs, bounds[k], at); got.AwaitMs != area.Seconds()*1000/float64(n) {
					t.Errorf("%s: interval (%v, %v]: await %v ms, in-flight integral %v over %d requests", name, bounds[k], at, got.AwaitMs, area, n)
				}
			}
		}
		if dropped {
			for _, dev := range devs {
				tail := acts[dev][len(ticks)]
				total.add(tail)
				st.inDroppedTail += int(tail.reads + tail.writes)
			}
		}
		// Σ interval bytes = the totals at Stop, the dropped tail included.
		if got, want := [4]uint64{rep.TotalReadBytes, rep.TotalWrittenBytes, rep.TotalReads, rep.TotalWrites},
			[4]uint64{total.sectR * disk.SectorSize, total.sectW * disk.SectorSize, total.reads, total.writes}; got != want {
			t.Errorf("%s: totals (read B, written B, reads, writes) %v, log %v", name, got, want)
		}
		want := iostat.NewHists()
		for _, dev := range devs {
			for _, c := range r.log.byDev[dev] {
				if c.Done <= stop {
					want.Observe(c)
				}
			}
		}
		if !reflect.DeepEqual(rep.Hists, want) {
			t.Errorf("%s: Hists (%d requests) differ from the log's over [0, %v] (%d requests)", name, rep.Hists.Requests, stop, want.Requests)
		}
	}

	// The physical table and the trace keep counting after Stop, through
	// audit and Inspect reads: their window is the whole log.
	var phys PhysicalAttribution
	recs := make([]trace.Record, len(r.log.all))
	for i, e := range r.log.all {
		c := e.c
		if c.Done > stop {
			st.afterStop++
		}
		if strings.HasPrefix(e.dev, "master.") {
			st.onMasters++
		}
		if b := int64(c.Count) * disk.SectorSize; c.Op == disk.Read {
			phys.Reads[c.Stage]++
			phys.ReadBytes[c.Stage] += b
		} else {
			phys.Writes[c.Stage]++
			phys.WriteBytes[c.Stage] += b
		}
		recs[i] = trace.Record{Dev: e.dev, Op: c.Op, Sector: c.Sector, Count: c.Count, Stage: c.Stage, Arrived: c.Arrived, Done: c.Done}
	}
	if live := r.rep.Log.Physical(); *live != phys {
		t.Errorf("PhysicalAttribution %+v, log %+v", *live, phys)
	}
	if got, want := r.rep.Log.Physical().Table(), phys.Table(); !reflect.DeepEqual(got, want) {
		t.Errorf("physical table %v, log %v", got.Rows, want.Rows)
	}
	var want bytes.Buffer
	if err := trace.WriteCSV(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.trace.Bytes(), want.Bytes()) {
		t.Errorf("-trace-out records (%d bytes) differ from the log's (%d bytes)", r.trace.Len(), want.Len())
	}
	return st
}

// spannedBounds reports, for each bound, whether a request of devs was in
// flight across it: arrived before it and done after it.
func spannedBounds(r *logRun, devs []string, bounds []time.Duration) []bool {
	out := make([]bool, len(bounds))
	for _, dev := range devs {
		for _, c := range r.log.byDev[dev] {
			for k, _ := slices.BinarySearch(bounds, c.Arrived+1); k < len(bounds) && bounds[k] < c.Done; k++ {
				out[k] = true
			}
		}
	}
	return out
}

// inFlightArea integrates the number of requests of devs in flight,
// [Arrived, Done), over (from, to] by sweeping their arrivals and
// completions in time order.
func inFlightArea(r *logRun, devs []string, from, to time.Duration) time.Duration {
	type step struct {
		at time.Duration
		d  int
	}
	var steps []step
	for _, dev := range devs {
		for _, c := range r.log.byDev[dev] {
			if c.Done > from && c.Arrived < to {
				steps = append(steps, step{max(c.Arrived, from), +1}, step{min(c.Done, to), -1})
			}
		}
	}
	slices.SortFunc(steps, func(a, b step) int { return cmp.Compare(a.at, b.at) })
	var area time.Duration
	n, last := 0, from
	for _, s := range steps {
		area += time.Duration(n) * (s.at - last)
		n, last = n+s.d, s.at
	}
	return area
}

// logOpts is the differential's smallest testbed: four slaves of six disks.
var logOpts = Options{Scale: 65536, Slaves: 4, MapTaskTarget: 24}

// tsFaultedPlan is the benchmark's ts_faulted plan: a fail-slow MR disk, a
// NameNode bounce, a DataNode restart, a rack partition and a JobTracker
// bounce.
const tsFaultedPlan = "slow-disk@50ms:node=slave-03,disk=mr0,factor=4;" +
	"restart-namenode@80ms:down=40ms;" +
	"restart-datanode@150ms:node=slave-02,down=50ms;" +
	"partition@250ms:rack=2,down=50ms;" +
	"restart-jobtracker@400ms:down=25ms"

// TestLogReproducesLiveViews is the differential: on every run below, each
// live per-disk view equals the one derived from the run's completion log,
// for every interval of every group. The runs cover the four workloads, an
// uncompressed TeraSort, a tiered fleet (flash channels), ts_faulted's plan
// and shape (master disks, recovering and survivor groups, audit reads
// after Stop), a kill and a restart (victim, recovering and survivor
// groups), ten slaves (30-disk groups) and a stop that drops its tail.
func TestLogReproducesLiveViews(t *testing.T) {
	plan := func(s string) faults.Plan {
		p, err := faults.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	raw := Factors{Slots: Slots1x8, MemoryGB: 16}
	tiered := logOpts
	tiered.Scale, tiered.Slaves, tiered.IntermediateTier = 16384, 3, disk.ClassSSD
	uncompressed := logOpts
	uncompressed.Scale = 16384
	faulted := Options{Scale: 65536, Slaves: 6, MapTaskTarget: 64, Racks: 2, UplinkBPS: 40 << 20,
		MasterRecovery: true, Integrity: true, Audit: true, Faults: plan(tsFaultedPlan)}
	killRestart := logOpts
	killRestart.Faults = plan("kill-node@1s:node=slave-01;restart-node@100ms:node=slave-02,down=50ms")
	tenSlaves := Options{Scale: 131072, Slaves: 10, MapTaskTarget: 32}
	cases := []struct {
		name string
		w    Workload
		f    Factors
		opts Options
	}{
		{"AGG", AGG, SlotsRuns[0], logOpts},
		{"TS", TS, SlotsRuns[0], logOpts},
		{"KM", KM, SlotsRuns[0], logOpts},
		{"PR", PR, SlotsRuns[0], logOpts},
		{"TS-raw", TS, raw, uncompressed},
		{"TS-tiered", TS, SlotsRuns[0], tiered},
		{"ts_faulted", TS, Factors{Slots: Slots1x8, MemoryGB: 16, Compress: true}, faulted},
		{"kill-restart", TS, SlotsRuns[0], killRestart},
		{"TS-10-slaves", TS, SlotsRuns[0], tenSlaves},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			r := runLogged(t, c.w, c.f, c.opts)
			st := diffAgainstLog(t, r)
			t.Logf("%d completions (%d on master disks, %d after Stop, %d merges), %d intervals, %d groups, %d intervals with Little's law",
				st.completions, st.onMasters, st.afterStop, r.merges(), st.intervals, st.groups, st.clean)
			if c.opts.Audit && st.afterStop == 0 {
				t.Error("the audit read nothing after Stop; the windows are not told apart")
			}
			if c.name != "PR" {
				return
			}
			// The same run, sampled so that Stop lands 1/20 of an interval
			// after the last tick: the tail is dropped, and only the totals
			// see the requests that complete in it.
			opts := c.opts
			opts.SampleInterval = r.stop() * 20 / 401
			r = runLogged(t, c.w, c.f, opts)
			if st = diffAgainstLog(t, r); !st.dropped || st.inDroppedTail == 0 {
				t.Fatalf("interval %v: tail dropped %v with %d completions in it; the case needs both", opts.SampleInterval, st.dropped, st.inDroppedTail)
			}
			t.Logf("interval %v: %d intervals, %d completions in the dropped tail", opts.SampleInterval, st.intervals, st.inDroppedTail)
		})
	}
}
