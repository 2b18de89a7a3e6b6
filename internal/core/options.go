package core

import (
	"time"

	"iochar/internal/cluster"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Option sets one field of Options. The With* constructors are the same
// setters as a struct literal's fields, written as functions so a caller can
// build a configuration from a list (a CLI's flag block, a benchmark's
// per-cell extras), matching the suite's WithParallelism/WithCacheDir style:
//
//	opts := core.NewOptions(
//	    core.WithScale(4096),
//	    core.WithAudit(),
//	)
//
// Options is a plain struct and filling it directly is equally supported;
// the two forms describe the same run and share one cache key.
type Option func(*Options)

// NewOptions builds an Options value from functional options. Zero fields
// keep the documented defaults (scale 1024, 10 slaves, seed 1, ...), applied
// by the runners exactly as for a hand-filled struct.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// With applies additional options to an existing configuration, however it
// was built.
func (o Options) With(opts ...Option) Options {
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithScale sets the capacity divisor versus the paper's testbed.
func WithScale(scale int64) Option { return func(o *Options) { o.Scale = scale } }

// WithSlaves sets the number of slave nodes.
func WithSlaves(n int) Option { return func(o *Options) { o.Slaves = n } }

// WithRacks splits the slaves across n top-of-rack switches (slave i in
// rack i%n): HDFS placement turns rack-aware and cross-rack transfers
// traverse the rack uplinks. n <= 1 keeps the flat fabric.
func WithRacks(n int) Option { return func(o *Options) { o.Racks = n } }

// WithUplink caps each rack uplink at bps bytes/second; 0 matches the node
// NIC rate (non-blocking). Meaningful only with WithRacks(n > 1).
func WithUplink(bps int64) Option { return func(o *Options) { o.UplinkBPS = bps } }

// WithSeed sets the simulation seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSampleInterval sets the iostat sampling interval in virtual time.
func WithSampleInterval(d time.Duration) Option {
	return func(o *Options) { o.SampleInterval = d }
}

// WithMapTaskTarget bounds the map-task count of the largest workload.
func WithMapTaskTarget(n int64) Option { return func(o *Options) { o.MapTaskTarget = n } }

// WithInputFraction shrinks every workload's input relative to the scaled
// paper volume (0 < f <= 1).
func WithInputFraction(f float64) Option { return func(o *Options) { o.InputFraction = f } }

// WithHistograms sets nothing: every run fills its groups' Hists from its
// disk log. It stays while benchmark/ passes it.
func WithHistograms() Option { return func(*Options) {} }

// WithAudit switches on the post-run invariant audit (RunReport.Audit).
func WithAudit() Option { return func(o *Options) { o.Audit = true } }

// WithIntegrity switches on end-to-end HDFS checksumming: per-chunk CRC32C
// computed at write time and verified on every streaming read.
func WithIntegrity() Option { return func(o *Options) { o.Integrity = true } }

// WithScrubRate enables the background replica scrubber (> 0 limits
// bytes/sec, < 0 runs unthrottled). Implies the integrity machinery.
func WithScrubRate(rate int64) Option { return func(o *Options) { o.ScrubRate = rate } }

// WithMasterRecovery switches on master fault tolerance: journaled
// NameNode/JobTracker state on provisioned metadata disks, crash–restart
// recovery, and failover-aware clients. Master-restart fault plans imply it.
func WithMasterRecovery() Option {
	return func(o *Options) { o.MasterRecovery = true }
}

// WithFaults injects a deterministic fault plan during the run.
func WithFaults(plan faults.Plan) Option { return func(o *Options) { o.Faults = plan } }

// WithIntermediateTier selects the device class backing the
// intermediate-data (spill/merge/shuffle) volumes: disk.ClassHDD keeps the
// paper's all-mechanical layout, disk.ClassSSD provisions the MR volumes on
// flash while HDFS data disks stay mechanical. Tiered runs add per-class
// iostat groups to the report (RunReport.Groups).
func WithIntermediateTier(c disk.Class) Option {
	return func(o *Options) { o.IntermediateTier = c }
}

// WithTraceAttach installs the per-disk observer hook, called once per disk,
// master's too, before the run. Runs with it set bypass the persistent cache.
func WithTraceAttach(fn func(dev string, d *disk.Disk)) Option {
	return func(o *Options) { o.TraceAttach = fn }
}

// WithTuneMapred adjusts the derived MapReduce configuration just before the
// runtime is built. Runs with it set bypass the persistent cache.
func WithTuneMapred(fn func(*mapred.Config)) Option {
	return func(o *Options) { o.TuneMapred = fn }
}

// WithInspect installs the post-run simulation-context hook. Runs with it
// set bypass the persistent cache.
func WithInspect(fn func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster)) Option {
	return func(o *Options) { o.Inspect = fn }
}
