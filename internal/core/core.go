// Package core is the characterization framework — the paper's experimental
// methodology as code. It assembles the simulated testbed (cluster, HDFS,
// MapReduce runtime), runs each workload under the paper's three factors
// (task slots, memory size, intermediate-data compression), samples the two
// disk groups with the iostat clone, and extracts the data behind every
// figure and table of the evaluation section.
//
// Scaling: experiments run at a capacity divisor (Options.Scale) with all
// byte ratios preserved. One deliberate deviation is documented here rather
// than hidden: the paper's 64 MB blocks imply ~16 000 map tasks for the
// 1 TB TeraSort; the simulated block size is raised so the largest workload
// runs ~512 map tasks (same multi-wave scheduling regime, tractable event
// counts), and the sort/shuffle buffers are scaled with the block so the
// spill behaviour per task matches the paper's configuration.
package core

import (
	"context"
	"fmt"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/compress"
	"iochar/internal/cpustat"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/iostat"
	"iochar/internal/journal"
	"iochar/internal/mapred"
	"iochar/internal/netsim"
	"iochar/internal/sim"
	"iochar/internal/stats"
	"iochar/internal/workloads"
)

// SlotsConfig is one task-slot setting. The paper labels its two settings
// "1_8" and "2_16"; the text's reading of the pair is ambiguous, so this
// reproduction adopts the standard Hadoop 1.x sizing for a 12-core node —
// 8 map slots and 1 reduce slot per node for "1_8", both doubled for
// "2_16". The paper's finding (slot count leaves the four I/O metrics
// unchanged) is insensitive to the reading; see DESIGN.md.
type SlotsConfig struct {
	Name        string
	MapSlots    int
	ReduceSlots int
}

// The paper's two slot settings.
var (
	Slots1x8  = SlotsConfig{Name: "1_8", MapSlots: 8, ReduceSlots: 1}
	Slots2x16 = SlotsConfig{Name: "2_16", MapSlots: 16, ReduceSlots: 2}
)

// Factors is one cell of the experiment matrix.
type Factors struct {
	Slots    SlotsConfig
	MemoryGB int  // 16 or 32
	Compress bool // intermediate-data compression
}

// Label renders the paper's run naming, e.g. "AGG_1_8".
func (f Factors) Label(w Workload) string {
	return w.String() + "_" + f.Slots.Name
}

func (f Factors) cacheKey(w Workload) string {
	return fmt.Sprintf("%s/%s/m%d/c%v", w, f.Slots.Name, f.MemoryGB, f.Compress)
}

// Options configures the simulated testbed.
type Options struct {
	Scale          int64         // capacity divisor; default 1024
	Slaves         int           // default 10, as in the paper
	Seed           int64         // default 1
	SampleInterval time.Duration // iostat interval; default 1 s of virtual time
	// Racks splits the slaves across this many top-of-rack switches joined
	// by per-rack uplinks: slave i lands in rack i%Racks, the master in rack
	// 0, HDFS placement turns rack-aware (one writer-local replica, the rest
	// on one remote rack), and cross-rack transfers traverse both uplinks.
	// The default 1 keeps the paper's flat non-blocking fabric and is
	// byte-identical to builds without the topology layer.
	Racks int
	// UplinkBPS caps each rack uplink at this many bytes/second; 0 matches
	// the node NIC rate (non-blocking). Values below the NIC rate
	// oversubscribe the fabric. Meaningful only with Racks > 1.
	UplinkBPS int64
	// MapTaskTarget bounds the map-task count of the largest workload (see
	// the package comment); default 512.
	MapTaskTarget int64
	// InputFraction further shrinks every workload's input relative to
	// PaperInputBytes()/Scale (benchmarks use < 1 for speed); default 1.
	InputFraction float64
	// TraceAttach, when set, is called once per data disk before the run
	// with a stable device name ("slave-03.mr1") — the hook point for
	// internal/trace.StreamCollector.Attach and other block-level observers.
	TraceAttach func(dev string, d *disk.Disk) `json:"-"`
	// Histograms collects per-request await/svctm/size distributions for
	// each monitored device group (RunReport.HDFS.Hists and MR.Hists) via
	// the disk observer bus. Composes freely with TraceAttach observers;
	// off, it costs nothing.
	Histograms bool
	// SharedDataDisks pools HDFS and intermediate data on the same six
	// spindles instead of the paper's dedicated 3+3 layout — the
	// counterfactual behind the paper's observation 4 recommendation.
	SharedDataDisks bool
	// IntermediateTier selects the device class backing the
	// intermediate-data (spill/merge/shuffle) volumes. The zero value
	// (disk.ClassHDD) keeps the paper's all-mechanical testbed and is
	// byte-identical to builds without the tier feature; disk.ClassSSD
	// provisions the MR volumes on flash (disk.DataCenterSSD) while HDFS
	// data disks stay mechanical — the tiering experiment the paper's
	// small-random-write observation motivates. Tiered runs also monitor
	// per-class disk groups (RunReport.Classes, "hdd"/"ssd").
	IntermediateTier disk.Class
	// Faults is a deterministic fault plan injected during the run (see
	// internal/faults for the syntax and event kinds). A non-empty plan
	// switches on HDFS recovery and MapReduce fault tolerance; with an empty
	// plan none of that machinery is instantiated and the run is
	// byte-identical to a fault-free build.
	Faults faults.Plan
	// MasterRecovery switches on master fault tolerance: metadata volumes are
	// provisioned on the master node, the NameNode journals every namespace
	// mutation (with periodic fsimage checkpoints) and the JobTracker
	// journals job state, both as real bytes through the disk models, and
	// both masters become killable and restartable. A fault plan carrying
	// restart-namenode/restart-jobtracker events implies the machinery even
	// when this is false. Off, nothing is provisioned and the run is
	// byte-identical to a build without the master layer.
	MasterRecovery bool
	// TuneMapred, when set, adjusts the derived MapReduce configuration just
	// before the runtime is built — the hook chaos testing uses to weaken
	// recovery budgets on purpose and prove the oracles catch it. Runs with
	// it set bypass the persistent cache (the closure is not serializable).
	TuneMapred func(*mapred.Config) `json:"-"`
	// Integrity switches on end-to-end HDFS checksumming: per-chunk CRC32C
	// computed from the writer's bytes, verified on every streaming read,
	// with corrupt replicas reported and read-repaired. Off by default — a
	// healthy baseline carries no verification and is byte-identical to the
	// seed.
	Integrity bool
	// ScrubRate enables the background replica scrubber (implies Integrity's
	// machinery must be on; RunOne enforces the pairing). > 0 is a
	// bytes-per-second rate limit; < 0 runs unthrottled passes. 0 leaves the
	// scrubber off.
	ScrubRate int64
	// Audit switches on the post-run invariant audit (RunReport.Audit): HDFS
	// replication cross-check, localfs leak accounting, dirty-page check, and
	// canonical output checksums. It runs after monitoring stops, so measured
	// series are unaffected; healthy runs without it carry zero extra work.
	Audit bool
	// Inspect, when set, runs in simulation context after the workload (and
	// any fault recovery) completes, once monitoring has stopped — a hook for
	// tests and tools to read back HDFS contents and block placement while
	// the cluster still exists.
	Inspect func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) `json:"-"`
}

// The derived configurations below compress Hadoop's wall-clock timescales
// by the same Scale factor as SampleInterval, so detection, checkpoint and
// retry latencies stay proportionate to scaled run lengths.

// recoveryConfig derives HDFS failure detection for fault runs: Hadoop's 3 s
// heartbeat, and a dead timeout of ten heartbeats.
func (o Options) recoveryConfig() hdfs.RecoveryConfig {
	hb := scaleDur(3*time.Second, o.Scale)
	return hdfs.RecoveryConfig{HeartbeatInterval: hb, DeadTimeout: 10 * hb}
}

// journalConfig derives one master's write-ahead-log config: Hadoop's 30 s
// checkpoint interval, caller retry backoff on the same timescale, and a
// per-master jitter seed.
func (o Options) journalConfig(seed int64) journal.Config {
	return journal.Config{
		CheckpointInterval: scaleDur(30*time.Second, o.Scale),
		RetryBase:          scaleDur(200*time.Millisecond, o.Scale),
		RetryMax:           scaleDur(5*time.Second, o.Scale),
		Seed:               seed,
	}
}

// hdfsMasterConfig adds the NameNode's hard lease limit to its journal
// config: four DataNode dead timeouts, so lease recovery never races live
// failure detection. Safe mode keeps hdfs's default threshold.
func (o Options) hdfsMasterConfig() hdfs.MasterConfig {
	return hdfs.MasterConfig{
		Journal:      o.journalConfig(o.Seed + 1),
		LeaseTimeout: 4 * o.recoveryConfig().DeadTimeout,
	}
}

// scrubConfig derives the scrubber's pacing: ScrubRate's limit when positive
// (unthrottled otherwise), and 30 s between passes.
func (o Options) scrubConfig() hdfs.ScrubConfig {
	cfg := hdfs.ScrubConfig{PassInterval: scaleDur(30*time.Second, o.Scale)}
	if o.ScrubRate > 0 {
		cfg.BytesPerSec = o.ScrubRate
	}
	return cfg
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1024
	}
	if o.Slaves <= 0 {
		o.Slaves = 10
	}
	if o.Racks <= 0 {
		o.Racks = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SampleInterval <= 0 {
		// The paper sampled iostat every second over runs of tens of
		// minutes; scaled runs are proportionally shorter, so the default
		// interval shrinks with Scale to keep sample counts comparable.
		o.SampleInterval = scaleDur(time.Second, o.Scale)
	}
	if o.MapTaskTarget <= 0 {
		o.MapTaskTarget = 512
	}
	if o.InputFraction <= 0 || o.InputFraction > 1 {
		o.InputFraction = 1
	}
	if o.Faults.Seed == 0 {
		o.Faults.Seed = o.Seed
	}
	return o
}

// scaleDur compresses a wall-clock timescale to the scaled testbed by
// 64/Scale, with a 1 ms floor.
func scaleDur(d time.Duration, scale int64) time.Duration {
	d = time.Duration(int64(d) * 64 / scale)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// inputBytes returns a workload's scaled input volume.
func (o Options) inputBytes(w workloads.Workload) int64 {
	b := int64(float64(w.PaperInputBytes()) / float64(o.Scale) * o.InputFraction)
	if b < 64<<10 {
		b = 64 << 10
	}
	return b
}

// blockBytes picks the HDFS block size: the scaled 64 MB default, raised if
// needed so the largest workload stays near MapTaskTarget map tasks.
func (o Options) blockBytes() int64 {
	var maxInput int64
	for _, w := range WorkloadOrder {
		if b := o.inputBytes(w.program()); b > maxInput {
			maxInput = b
		}
	}
	bs := (64 << 20) / o.Scale
	if byTasks := maxInput / o.MapTaskTarget; byTasks > bs {
		bs = byTasks
	}
	if bs < 64<<10 {
		bs = 64 << 10
	}
	return bs / 4096 * 4096
}

// RunReport is the outcome of one workload × factors execution.
type RunReport struct {
	Workload Workload
	Factors  Factors
	HDFS     *iostat.Report
	MR       *iostat.Report
	// CPUUtil is the cluster-wide mean CPU utilization over time (percent)
	// — the measurement behind Table 3's CPU-bound/I/O-bound labels.
	CPUUtil *stats.Series
	Jobs    []*mapred.Result
	Wall    time.Duration // virtual time from job submission to completion
	// Events is the number of kernel events the simulation dispatched end to
	// end — the deterministic work metric behind the benchmark harness's
	// events/sec throughput numbers.
	Events uint64
	// Network is the fabric's end-of-run accounting: per-NIC and per-uplink
	// bytes and busy time, retransmitted bytes, and failed transfers.
	Network *netsim.Stats

	// Classes holds the per-device-class iostat reports ("hdd"/"ssd") of a
	// tiered run; nil when the fleet is homogeneous (IntermediateTier off).
	Classes map[string]*iostat.Report

	// Fault-run observability; zero/nil for healthy runs.
	Recovery       hdfs.RecoveryStats        // HDFS repair work performed
	FaultsInjected []string                  // events that actually fired, in order
	FaultGroups    map[string]*iostat.Report // victim/survivor disk splits

	// Master-recovery observability; zero/nil unless the master layers ran.
	// Masters is the iostat report over the master node's metadata disks —
	// the edit-journal/checkpoint stream the paper's master traces show.
	Masters    *iostat.Report
	NameNode   hdfs.MasterStats
	JobTracker mapred.MasterStats

	// Audit is the post-run invariant audit; nil unless Options.Audit is set.
	Audit *AuditReport
}

// Runtime groups names for the monitored disk groups. The victim/survivor
// splits exist only on fault runs whose plan kills a node or DataNode: they
// re-sample the same disks partitioned by whether their node is a planned
// victim, so recovery traffic (re-replication onto survivors, the victim's
// flatline) is separable from the workload's own I/O.
const (
	GroupHDFS          = "HDFS"
	GroupMR            = "MapReduce"
	GroupHDFSVictims   = "HDFS-victims"
	GroupMRVictims     = "MapReduce-victims"
	GroupHDFSSurvivors = "HDFS-survivors"
	GroupMRSurvivors   = "MapReduce-survivors"
	// Recovering groups cover nodes a restart fault takes down and brings
	// back: their disks flatline during the outage, then absorb block-report
	// scans, journal replays, and any re-replication catch-up on rejoin.
	GroupHDFSRecovering = "HDFS-recovering"
	GroupMRRecovering   = "MapReduce-recovering"
	// GroupMasters covers the master node's metadata disks, monitored only
	// when master recovery is on (the only time those disks exist): the
	// NameNode edit-log/fsimage stream and the JobTracker job journal.
	GroupMasters = "masters"
	// Per-device-class groups, monitored only on tiered runs (where the
	// fleet actually has two classes): every mechanical spindle vs every
	// flash device, regardless of role. Series render as "hdd.*"/"ssd.*".
	GroupClassHDD = "hdd"
	GroupClassSSD = "ssd"
)

// CheckSlaves returns an error when n slaves are fewer than the DataNodes
// HDFS writes every block to; RunOne returns it, the CLIs exit 2 with it.
func CheckSlaves(n int) error {
	if r := hdfs.DefaultConfig(1).Replication; n < r {
		return fmt.Errorf("%d slaves cannot hold HDFS's %d replicas of a block (need at least %d)", n, r, r)
	}
	return nil
}

// RunOne builds a fresh testbed and executes one experiment cell.
func RunOne(w Workload, f Factors, opts Options) (*RunReport, error) {
	return RunOneContext(context.Background(), w, f, opts)
}

// RunOneContext is RunOne with cancellation: the context is threaded into
// the discrete-event loop, so a long cell aborts promptly when ctx is
// cancelled (returning ctx's error) instead of simulating to completion.
func RunOneContext(ctx context.Context, w Workload, f Factors, opts Options) (*RunReport, error) {
	opts = opts.withDefaults()
	if !w.Valid() {
		return nil, fmt.Errorf("core: invalid workload %d (use the Workload constants or ParseWorkload)", uint8(w))
	}
	if err := CheckSlaves(opts.Slaves); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	wl := w.program()
	env := sim.New(opts.Seed)
	// The testbed's daemon processes (heartbeats, journal daemons and the
	// scrubber, when enabled) never finish on their own, and a cancelled run
	// leaves every process mid-flight: unwind them all on every return path,
	// after the report has been read out of the testbed.
	defer env.Close()
	hw := cluster.DefaultHardware(opts.Scale).WithMemoryGB(f.MemoryGB)
	hw.Racks = opts.Racks
	hw.UplinkBPS = opts.UplinkBPS
	// Scale artifact control: data volumes scale by Options.Scale but block
	// size only by the task-target factor, so per-stream readahead windows
	// are proportionally larger than on the real testbed. A full 128 KiB
	// window per stream would thrash the scaled cache at the high slot
	// count — a pure artifact. Bounding the window at 64 KiB and giving the
	// cache a modest floor keeps stream working sets inside the cache at
	// both slot levels, as they were on the real machines.
	hw.PageCacheOpts.ReadaheadMaxPages = 16
	hw.SharedDataDisks = opts.SharedDataDisks
	if opts.IntermediateTier == disk.ClassSSD {
		ssd := disk.DataCenterSSD()
		hw.MRDiskParams = &ssd
	}
	cl, err := cluster.New(env, hw, opts.Slaves)
	if err != nil {
		return nil, err
	}

	// Extent granularity follows the block size: with 1 MiB extents under
	// sub-megabyte scaled blocks, allocation slack would dominate the
	// scaled disks' capacity (and fragmentation would vanish).
	extentSectors := opts.blockBytes() / 4 / 512
	if extentSectors < 64 {
		extentSectors = 64
	}
	if extentSectors > 2048 {
		extentSectors = 2048
	}
	for _, s := range cl.Slaves {
		for _, v := range s.HDFSVols {
			v.SetExtentSectors(extentSectors)
		}
		for _, v := range s.MRVols {
			v.SetExtentSectors(extentSectors)
		}
	}
	if opts.TraceAttach != nil {
		for _, s := range cl.Slaves {
			for _, d := range append(append([]*disk.Disk{}, s.HDFSDisks...), s.MRDisks...) {
				opts.TraceAttach(d.P.Name, d)
			}
		}
	}

	// Master recovery provisions the masters' metadata volumes; a plan with
	// master-restart events implies the machinery even when the option is
	// off, since the injector needs killable masters to aim at.
	masterOn := opts.MasterRecovery || opts.Faults.HasMasterFaults()
	if masterOn {
		if err := cl.ProvisionMasterMeta(2); err != nil {
			return nil, err
		}
	}

	hcfg := hdfs.DefaultConfig(opts.Scale)
	hcfg.BlockSize = opts.blockBytes()
	// Seeds o.Seed+1/+2 belong to the master layers; +3/+4 drive the HDFS
	// and MapReduce clients' transient-network backoff jitter (healthy runs
	// never draw from them).
	hcfg.Seed = opts.Seed + 3
	fs := hdfs.New(env, hcfg, cl.Net, cl.Slaves)
	fs.SetMasterNode(cl.Master.Name)
	if opts.Integrity || opts.ScrubRate != 0 {
		// Enabled before Prepare so the sums are computed from the pristine
		// input bytes, ahead of any fault.
		fs.EnableIntegrity()
	}
	if masterOn {
		// Enabled before Prepare so experiment setup is journaled too: the
		// replayed namespace must cover every file, not just workload output.
		fs.EnableMaster(cl.Master.MetaVols[0], opts.hdfsMasterConfig())
	}

	mcfg := mapred.DefaultConfig(opts.Scale)
	mcfg.Seed = opts.Seed + 4
	mcfg.MapSlots = f.Slots.MapSlots
	mcfg.ReduceSlots = f.Slots.ReduceSlots
	// Buffers follow memory, as the testbed's io.sort.mb/shuffle budget did:
	// at 32 GB the sort buffer comfortably holds a full map output (one
	// spill); at 16 GB it does not (two spills) — Hadoop's 100 MB-per-64 MB
	// proportion.
	memFrac := float64(f.MemoryGB) / 32
	mcfg.SortBufBytes = int64(float64(hcfg.BlockSize) * 100 / 64 * memFrac)
	mcfg.ShuffleBufBytes = int64(float64(hcfg.BlockSize) * 140 / 64 * memFrac)
	if f.Compress {
		mcfg.Codec = compress.NewLZ()
	}
	if opts.TuneMapred != nil {
		opts.TuneMapred(&mcfg)
	}
	rt, err := mapred.New(env, cl, fs, mcfg)
	if err != nil {
		return nil, err
	}
	if masterOn {
		rt.EnableMaster(cl.Master.MetaVols[1], opts.journalConfig(opts.Seed+2))
	}

	// Fault machinery is instantiated only when a plan exists: a healthy run
	// must carry zero extra events (heartbeats, monitors, workers) so its
	// counters and iostat output are byte-identical to the fault-free build.
	var inj *faults.Injector
	if !opts.Faults.Empty() {
		fs.EnableRecovery(opts.recoveryConfig())
		rt.EnableFaults()
		inj = faults.New(env, cl, fs, rt, opts.Faults)
		if err := inj.Start(); err != nil {
			return nil, err
		}
	}
	if opts.ScrubRate != 0 {
		fs.EnableScrubber(opts.scrubConfig())
	}

	wl.Prepare(fs, cl, opts.inputBytes(wl), opts.Seed)

	mon := iostat.NewMonitor(opts.SampleInterval)
	mon.AddGroup(GroupHDFS, cl.AllHDFSDisks()...)
	mon.AddGroup(GroupMR, cl.AllMRDisks()...)
	// Per-class groups only exist on a heterogeneous fleet: an untiered run
	// adds no groups, no events and no bytes of output, keeping the HDD-only
	// path byte-identical. The monitor's single sampling process covers all
	// groups, so the extra groups on tiered runs add no kernel events either.
	classGroups := opts.IntermediateTier == disk.ClassSSD
	if classGroups {
		mon.AddGroup(GroupClassHDD, cl.DisksByClass(disk.ClassHDD)...)
		mon.AddGroup(GroupClassSSD, cl.DisksByClass(disk.ClassSSD)...)
	}
	faultGroups := addFaultGroups(mon, cl, opts.Faults)
	if masterOn {
		mon.AddGroup(GroupMasters, cl.Master.MetaDisks...)
	}
	if opts.Histograms {
		mon.EnableHistograms()
	}
	mon.Start(env)
	cpu := cpustat.NewMonitor(opts.SampleInterval, cl.Slaves)
	cpu.Start(env)

	rep := &RunReport{Workload: w, Factors: f}
	var runErr error
	env.Go("driver", func(p *sim.Proc) {
		// The injector and recovery loops must stop even when the workload
		// fails, or their periodic events would keep Env.Run alive forever.
		defer func() {
			fs.StopScrubber()
			if inj != nil {
				inj.Stop()
				fs.StopRecovery()
			}
			fs.StopMaster()
			rt.StopMaster()
		}()
		start := p.Now()
		jobs, err := wl.Run(p, rt, fs, cl)
		if err != nil {
			runErr = err
			mon.Stop(p.Now())
			cpu.Stop(p.Now())
			return
		}
		if inj != nil {
			// A fault scheduled past the workload's natural end would fire
			// after the recovery barrier below and leave the cluster mid-
			// failure at audit time; run the clock past the last armed event
			// so every fault lands before recovery is awaited.
			if rem := inj.LastAt() + time.Millisecond - p.Now(); rem > 0 {
				p.Sleep(rem)
			}
			// A restarted master must finish its replay and leave safe mode
			// before block recovery is awaited — re-replication deliberately
			// stalls behind safe mode.
			fs.WaitMasterReady(p)
			rt.WaitMasterReady(p)
			// Let detection and re-replication finish inside the monitored
			// window, so the iostat series shows the recovery traffic.
			fs.WaitRecovered(p)
		}
		if opts.ScrubRate != 0 {
			// Wait out one full scrub pass over the settled namespace, then
			// any read-repair it queued: silent corruption in blocks the
			// workload never re-read is still found and fixed inside the
			// monitored window.
			fs.ScrubWait(p)
			fs.WaitRecovered(p)
		}
		// Drain pending journal bytes so iostat and the audit account the
		// full metadata stream (no-ops without the master layers).
		fs.MasterFlush(p)
		rt.MasterFlush(p)
		cl.SyncAll(p) // flush caches so iostat sees all writes
		rep.Jobs = jobs
		rep.Wall = p.Now() - start
		mon.Stop(p.Now())
		cpu.Stop(p.Now())
		if opts.Audit {
			rep.Audit = auditRun(p, fs, cl)
		}
		if opts.Inspect != nil {
			opts.Inspect(p, fs, cl)
		}
	})
	if _, err := env.RunContext(ctx, 0); err != nil {
		// The simulation was abandoned mid-flight; nothing in rep is usable.
		return nil, fmt.Errorf("core: %s: %w", f.cacheKey(w), err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("core: %s: %w", f.cacheKey(w), runErr)
	}
	rep.Events = env.Events()
	rep.HDFS = mon.Report(GroupHDFS)
	rep.MR = mon.Report(GroupMR)
	if classGroups {
		rep.Classes = map[string]*iostat.Report{
			GroupClassHDD: mon.Report(GroupClassHDD),
			GroupClassSSD: mon.Report(GroupClassSSD),
		}
	}
	rep.CPUUtil = cpu.Util()
	rep.Network = cl.Net.Stats()
	if masterOn {
		rep.Masters = mon.Report(GroupMasters)
		rep.NameNode = fs.MasterStats()
		rep.JobTracker = rt.MasterStats()
	}
	if inj != nil {
		rep.Recovery = fs.RecoveryStats()
		rep.FaultsInjected = inj.Fired()
		if len(faultGroups) > 0 {
			rep.FaultGroups = make(map[string]*iostat.Report, len(faultGroups))
			for _, name := range faultGroups {
				rep.FaultGroups[name] = mon.Report(name)
			}
		}
	}
	return rep, nil
}

// addFaultGroups registers victim/survivor disk groups for plans that kill a
// node or its DataNode, returning the group names added. Victims are known
// statically from the plan, so the split covers the whole run — including
// the healthy period before the fault fires.
func addFaultGroups(mon *iostat.Monitor, cl *cluster.Cluster, plan faults.Plan) []string {
	victim := map[string]bool{}
	recovering := map[string]bool{}
	for _, ev := range plan.Events {
		switch ev.Kind {
		case faults.KillNode, faults.KillDataNode:
			victim[ev.Node] = true
		case faults.RestartNode, faults.RestartDataNode:
			recovering[ev.Node] = true
		}
	}
	if len(victim) == 0 && len(recovering) == 0 {
		return nil
	}
	var vh, vm, rh, rm, sh, sm []*disk.Disk
	for _, s := range cl.Slaves {
		switch {
		case victim[s.Name]:
			vh = append(vh, s.HDFSDisks...)
			vm = append(vm, s.MRDisks...)
		case recovering[s.Name]:
			rh = append(rh, s.HDFSDisks...)
			rm = append(rm, s.MRDisks...)
		default:
			sh = append(sh, s.HDFSDisks...)
			sm = append(sm, s.MRDisks...)
		}
	}
	var names []string
	add := func(name string, disks []*disk.Disk) {
		if len(disks) > 0 {
			mon.AddGroup(name, disks...)
			names = append(names, name)
		}
	}
	add(GroupHDFSVictims, vh)
	add(GroupMRVictims, vm)
	add(GroupHDFSRecovering, rh)
	add(GroupMRRecovering, rm)
	add(GroupHDFSSurvivors, sh)
	add(GroupMRSurvivors, sm)
	return names
}

// WorkloadOrder is the paper's figure ordering.
var WorkloadOrder = []Workload{AGG, TS, KM, PR}

// Factor settings for the three experiment families (baselines per the
// paper's figure captions).
var (
	// SlotsRuns: memory 16 GB, compression on (Figure 1 caption).
	SlotsRuns = []Factors{
		{Slots: Slots1x8, MemoryGB: 16, Compress: true},
		{Slots: Slots2x16, MemoryGB: 16, Compress: true},
	}
	// MemoryRuns: slots 1_8, compression off (Figure 2 caption).
	MemoryRuns = []Factors{
		{Slots: Slots1x8, MemoryGB: 16, Compress: false},
		{Slots: Slots1x8, MemoryGB: 32, Compress: false},
	}
	// CompressRuns: 32 GB, slots 1_8 (Figure 3 caption).
	CompressRuns = []Factors{
		{Slots: Slots1x8, MemoryGB: 32, Compress: false},
		{Slots: Slots1x8, MemoryGB: 32, Compress: true},
	}
)

// FactorLabel names a factor level for display ("1_8"/"2_16", "16G"/"32G",
// "off"/"on") by experiment family.
func FactorLabel(family string, f Factors) string {
	switch family {
	case "slots":
		return f.Slots.Name
	case "memory":
		return fmt.Sprintf("%dG", f.MemoryGB)
	case "compress":
		if f.Compress {
			return "on"
		}
		return "off"
	}
	return "?"
}
