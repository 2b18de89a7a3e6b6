// Package cliutil holds the pieces the runner front ends (cmd/iochar,
// cmd/mrrun, cmd/chaos) share: Testbed, the one definition of the flags that
// describe the simulated testbed and of how they become core.Options;
// the numeric validation behind it; Testbed.WarnClamps, the stderr
// warning for a -scale that puts the disks on the capacity floor; and Once,
// which every tool (datagen and iosim too) applies before parsing.
//
// Validation exists because the library's withDefaults policy — reset any
// nonsense value to the documented default — is right for programmatic use
// but wrong at the CLI: `-scale -4096` silently running the (enormous)
// default-scale experiment looks exactly like a hang.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
)

// Testbed is the flag block every runner shares. Register defines the
// cluster-shape flags (-scale -slaves -racks -uplink -tier) with the tool's
// own defaults; RegisterRun adds the per-run flags (-seed -input-fraction
// -sample-interval -verify -scrub -hist) for the tools that expose them.
// After flag parsing, Options validates everything registered and returns
// the matching core options, so a flag is declared, checked and applied in
// one place.
type Testbed struct {
	scale    int64
	slaves   int
	racks    int
	uplinkMB int64
	tier     string

	run            bool // RegisterRun was called
	seed           int64
	inputFraction  float64
	sampleInterval time.Duration
	verify         bool
	scrub          int64
	// Hist is -hist, which selects what the tools print and sets no option:
	// every run fills its per-request distributions.
	Hist bool
}

// Register defines the cluster-shape flags on fs.
func (t *Testbed) Register(fs *flag.FlagSet, scale int64, slaves int) {
	fs.Int64Var(&t.scale, "scale", scale, "capacity divisor vs the paper's testbed")
	fs.IntVar(&t.slaves, "slaves", slaves, "number of slave nodes")
	fs.IntVar(&t.racks, "racks", 1, "rack count: slave i lands in rack i%racks behind a ToR switch (1 = flat network)")
	fs.Int64Var(&t.uplinkMB, "uplink", 0, "per-rack ToR uplink bandwidth in MB/s (0 = NIC rate; only meaningful with -racks > 1)")
	fs.StringVar(&t.tier, "tier", "hdd", "device class for intermediate-data volumes: hdd | ssd (HDFS data disks stay mechanical; ssd constrains -scale)")
}

// RegisterRun defines the per-run flags on fs.
func (t *Testbed) RegisterRun(fs *flag.FlagSet) {
	t.run = true
	fs.Int64Var(&t.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&t.inputFraction, "input-fraction", 1, "shrink inputs further (0,1]")
	fs.DurationVar(&t.sampleInterval, "sample-interval", 0, "iostat sampling interval in virtual time (0 = auto: 1 s scaled down with -scale)")
	fs.BoolVar(&t.verify, "verify", false, "end-to-end HDFS checksums (CRC32C), verified on every read with failover and read-repair")
	fs.Int64Var(&t.scrub, "scrub", 0, "background replica scrubber: bytes/sec rate limit (at least 1048576), -1 = unthrottled, 0 = off (implies -verify)")
	fs.BoolVar(&t.Hist, "hist", false, "print per-request await/svctm/size distributions as p50/p95/p99/max rows")
}

// Options validates the parsed flags — and the tool's own -parallel value,
// 0 for a tool without one — and returns the core options they select. The
// error is the one-line usage message; callers print it and exit 2.
func (t *Testbed) Options(parallel int) ([]core.Option, error) {
	frac, interval := 1.0, time.Duration(0) // always valid, for tools without the run flags
	if t.run {
		frac, interval = t.inputFraction, t.sampleInterval
	}
	if err := ValidateRunFlags(t.scale, t.slaves, frac, interval, parallel); err != nil {
		return nil, err
	}
	if err := core.CheckSlaves(t.slaves); err != nil {
		return nil, fmt.Errorf("-slaves: %w", err)
	}
	if err := ValidateTopologyFlags(t.racks, t.uplinkMB); err != nil {
		return nil, err
	}
	tier, err := disk.ParseClass(t.tier)
	if err != nil {
		return nil, err
	}
	// 1 MiB/s is the floor (MIN_SCAN_RATE) Hadoop 1.x's block scanner clamps to.
	if t.scrub < -1 || t.scrub > 0 && t.scrub < 1<<20 {
		return nil, fmt.Errorf("-scrub must be a rate of at least 1048576 bytes/sec, -1 (unthrottled) or 0 (off), got %d", t.scrub)
	}
	opts := []core.Option{
		core.WithScale(t.scale),
		core.WithSlaves(t.slaves),
		core.WithRacks(t.racks),
		core.WithUplink(t.uplinkMB << 20),
		core.WithIntermediateTier(tier),
	}
	if !t.run {
		return opts, nil
	}
	opts = append(opts,
		core.WithSeed(t.seed),
		core.WithInputFraction(t.inputFraction),
		core.WithSampleInterval(t.sampleInterval),
		core.WithScrubRate(t.scrub),
	)
	if t.verify {
		opts = append(opts, core.WithIntegrity())
	}
	return opts, nil
}

// ValidateRunFlags checks the numeric knobs common to the runner CLIs.
// scale must be positive; slaves must be positive; frac must lie in (0, 1];
// interval must be non-negative (0 selects the documented auto default);
// parallel must be non-negative (0 selects GOMAXPROCS).
func ValidateRunFlags(scale int64, slaves int, frac float64, interval time.Duration, parallel int) error {
	if scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", scale)
	}
	if slaves <= 0 {
		return fmt.Errorf("-slaves must be positive, got %d", slaves)
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("-input-fraction must be in (0,1], got %v", frac)
	}
	if interval < 0 {
		return fmt.Errorf("-sample-interval must be non-negative (0 = auto), got %v", interval)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative (0 = GOMAXPROCS), got %d", parallel)
	}
	return nil
}

// ValidateTopologyFlags checks the rack-topology knobs. racks must be
// positive (1 = the flat single-rack network, byte-identical to the
// pre-rack behaviour); uplinkMB is the per-rack ToR uplink bandwidth in
// MB/s and must be non-negative (0 = match the NIC rate, i.e. a
// non-blocking fabric). The racks-vs-slaves bound (every rack must hold a
// slave) is enforced at provisioning time, where both values are known.
func ValidateTopologyFlags(racks int, uplinkMB int64) error {
	if racks < 1 {
		return fmt.Errorf("-racks must be positive, got %d", racks)
	}
	if uplinkMB < 0 {
		return fmt.Errorf("-uplink must be non-negative MB/s (0 = NIC rate), got %d", uplinkMB)
	}
	if uplinkMB > 0 && racks == 1 {
		return fmt.Errorf("-uplink is meaningful only with -racks > 1 (a single rack has no uplinks)")
	}
	return nil
}

// WarnClamps prints one line to w, prefixed with the tool name, when -scale
// puts the fleet's disks on the capacity floor — the CLI surface for "your
// -scale is so large that capacity ratios no longer hold". Call it after
// Options has validated the flags.
func (t *Testbed) WarnClamps(w io.Writer, tool string) {
	p := disk.SeagateST1000NM0011() // the drive cluster provisions
	if _, clamped := p.Scaled(t.scale); clamped {
		fmt.Fprintf(w, "%s: warning: disk: scaling %s by %d wants %d sectors, clamped to the %d-sector floor (capacity ratios no longer hold at this scale)\n",
			tool, p.Name, t.scale, p.Sectors/t.scale, disk.MinSectors)
	}
}

// Once makes a second value for any flag defined on fs so far a usage
// error: the tool prints one "<tool>: " line on stderr and exits 2. Go's
// flag package keeps the last value, so `iochar -figure 5 -figure 6`
// printed only Figure 6 and exited 0. Call it after defining the flags and
// before fs.Parse.
func Once(tool string, fs *flag.FlagSet) {
	fs.VisitAll(func(f *flag.Flag) { f.Value = &once{Value: f.Value, tool: tool, name: f.Name} })
}

// once is a flag's value that refuses to be set twice.
type once struct {
	flag.Value
	tool, name string
	set        bool
}

func (o *once) Set(s string) error {
	if o.set {
		fmt.Fprintf(os.Stderr, "%s: -%s given more than once (%s, then %s)\n", o.tool, o.name, o.Value, s)
		os.Exit(2)
	}
	o.set = true
	return o.Value.Set(s)
}

// IsBoolFlag keeps a boolean flag's bare form (-all, not -all=true).
func (o *once) IsBoolFlag() bool {
	b, ok := o.Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}
