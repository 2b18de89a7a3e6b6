package iochar

import (
	"strings"
	"testing"

	"iochar/internal/bench"
	"iochar/internal/core"
	"iochar/internal/disk"
)

// tierOpts is sized so the heterogeneous fleet scales strictly: at 16384
// both the 1 TB spindles and the 800 GB flash drive stay above the
// MinSectors floor.
func tierOpts(extra ...core.Option) core.Options {
	return core.NewOptions(append([]core.Option{
		core.WithScale(16384), core.WithSlaves(3), core.WithMapTaskTarget(8),
	}, extra...)...)
}

var tierFactors = core.Factors{Slots: core.Slots1x8, MemoryGB: 16, Compress: true}

// TestTieredRunClassGroupsAndAwaitCollapse runs TeraSort all-mechanical and
// with the flash intermediate tier: the tiered report must carry the
// per-class iostat groups, and the intermediate-disk await — the paper's
// headline pathology (small random spill/shuffle I/O on spindles) — must
// collapse when that traffic moves to flash. The two runs' outcome
// fingerprints must differ: a different device model under the intermediate
// volumes changes the simulated outcome by design.
func TestTieredRunClassGroupsAndAwaitCollapse(t *testing.T) {
	base, err := core.RunOne(core.TS, tierFactors, tierOpts())
	if err != nil {
		t.Fatal(err)
	}
	if base.Groups != nil {
		t.Errorf("untiered run reported extra iostat groups: %v", base.Groups)
	}

	tiered, err := core.RunOne(core.TS, tierFactors, tierOpts(core.WithIntermediateTier(disk.ClassSSD)))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"hdd", "ssd"} {
		r, ok := tiered.Groups[class]
		if !ok || r == nil {
			t.Fatalf("tiered run missing class group %q (have %v)", class, tiered.Groups)
		}
		if r.Util.Len() == 0 {
			t.Errorf("class group %q collected no samples", class)
		}
	}
	if util := tiered.Groups["ssd"].Util.Max(); util <= 0 {
		t.Error("flash devices saw no traffic in a tiered TeraSort")
	}

	baseAwait := base.MR.AwaitMs.MeanNonzero()
	tierAwait := tiered.MR.AwaitMs.MeanNonzero()
	if tierAwait >= baseAwait {
		t.Errorf("intermediate-disk await did not collapse on flash: %.3f ms tiered vs %.3f ms on spindles", tierAwait, baseAwait)
	}
	if bench.Fingerprint(base) == bench.Fingerprint(tiered) {
		t.Error("fingerprint identical across tiers: tier is not reaching the simulation")
	}
}

// A tiered fleet must scale strictly: a Scale that would clamp either
// device class to the capacity floor is an error, not a silent
// equalization of the two capacities.
func TestTieredRunRejectsClampingScale(t *testing.T) {
	_, err := core.RunOne(core.TS, tierFactors, core.NewOptions(
		core.WithScale(262144), core.WithSlaves(3), core.WithMapTaskTarget(8),
		core.WithIntermediateTier(disk.ClassSSD)))
	if err == nil {
		t.Fatal("tiered run at a clamping scale must fail")
	}
	if !strings.Contains(err.Error(), "floor") {
		t.Errorf("error should name the capacity floor, got: %v", err)
	}
}

// Pooled spindles cannot be two device classes (cluster.New refuses it).
func TestTieredRunRejectsSharedDataDisks(t *testing.T) {
	opts := tierOpts(core.WithIntermediateTier(disk.ClassSSD))
	opts.SharedDataDisks = true
	_, err := core.RunOne(core.TS, tierFactors, opts)
	if err == nil || !strings.Contains(err.Error(), "SharedDataDisks") {
		t.Errorf("want SharedDataDisks conflict error, got: %v", err)
	}
}

// disk.ParseClass reads the CLI -tier flag values.
func TestParseTier(t *testing.T) {
	if c, err := disk.ParseClass("ssd"); err != nil || c != disk.ClassSSD {
		t.Errorf("ParseClass(ssd) = %v, %v", c, err)
	}
	if c, err := disk.ParseClass("hdd"); err != nil || c != disk.ClassHDD {
		t.Errorf("ParseClass(hdd) = %v, %v", c, err)
	}
	if _, err := disk.ParseClass("nvme"); err == nil {
		t.Error("ParseClass must reject unknown classes")
	}
}
