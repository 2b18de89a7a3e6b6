package cliutil

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
)

// Regression: non-positive -scale (and friends) used to fall through to the
// library's silent-default policy, so `mrrun -scale -4096` ran the
// default-scale experiment — indistinguishable from a hang. The CLIs now
// validate and exit with a clear message instead.
func TestValidateRunFlags(t *testing.T) {
	ok := func(scale int64, slaves int, frac float64, interval time.Duration, parallel int) {
		t.Helper()
		if err := ValidateRunFlags(scale, slaves, frac, interval, parallel); err != nil {
			t.Errorf("ValidateRunFlags(%d,%d,%v,%v,%d) = %v, want nil", scale, slaves, frac, interval, parallel, err)
		}
	}
	bad := func(want string, scale int64, slaves int, frac float64, interval time.Duration, parallel int) {
		t.Helper()
		err := ValidateRunFlags(scale, slaves, frac, interval, parallel)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ValidateRunFlags(%d,%d,%v,%v,%d) = %v, want error mentioning %q", scale, slaves, frac, interval, parallel, err, want)
		}
	}
	ok(4096, 10, 1, 0, 0)
	ok(1, 1, 0.25, time.Millisecond, 8)
	bad("-scale", 0, 10, 1, 0, 0)
	bad("-scale", -4096, 10, 1, 0, 0)
	bad("-slaves", 4096, 0, 1, 0, 0)
	bad("-input-fraction", 4096, 10, 0, 0, 0)
	bad("-input-fraction", 4096, 10, 1.5, 0, 0)
	bad("-sample-interval", 4096, 10, 1, -time.Second, 0)
	bad("-parallel", 4096, 10, 1, 0, -1)
}

// TestTestbedOptions drives the shared flag block the way a runner does —
// register, parse, Options — and checks the usage errors every runner must
// report (cmd/chaos's `-scale -4` once fell through to the library defaults
// and ran the scale-1024 experiment) and the options a good command line
// selects.
func TestTestbedOptions(t *testing.T) {
	parse := func(run bool, args ...string) *Testbed {
		t.Helper()
		var tb Testbed
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		tb.Register(fs, 262144, 5)
		if run {
			tb.RegisterRun(fs)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &tb
	}
	for _, c := range []struct {
		want     string // "" = accepted
		run      bool
		parallel int
		args     []string
	}{
		{"", true, 0, nil},
		{"", false, 4, nil}, // a tool that never called RegisterRun: its zero input fraction is not a flag value
		{"", true, 0, []string{"-racks", "2", "-uplink", "40", "-tier", "ssd", "-input-fraction", "0.5"}},
		{"-scale", false, 1, []string{"-scale", "-4"}},
		{"-scale", true, 0, []string{"-scale", "0"}},
		{"-slaves", false, 1, []string{"-slaves", "0"}},
		{"-slaves: 2 slaves cannot hold HDFS's 3 replicas", true, 0, []string{"-slaves", "2"}}, // panicked in hdfs.New
		{"-slaves: 1 slaves", false, 1, []string{"-slaves", "1"}},
		{"-parallel", false, -1, nil},
		{"-racks", true, 0, []string{"-racks", "0"}},
		{"-uplink", true, 0, []string{"-uplink", "40"}}, // at the default -racks 1
		{"-uplink", true, 0, []string{"-racks", "2", "-uplink", "-1"}},
		{`"nvme"`, false, 1, []string{"-tier", "nvme"}},
		{"-input-fraction", true, 0, []string{"-input-fraction", "0"}},
		{"-sample-interval", true, 0, []string{"-sample-interval", "-1s"}},
		{"-scrub", true, 0, []string{"-scrub", "-5"}}, // ran unthrottled under a cache key of its own
		{"-scrub", true, 0, []string{"-scrub", "1"}},  // a pass took millions of virtual seconds; iostat grew until memory ran out
		{"-scrub", true, 0, []string{"-scrub", "1048575"}},
		{"", true, 0, []string{"-scrub", "1048576"}},
	} {
		_, err := parse(c.run, c.args...).Options(c.parallel)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v (run flags %v, parallel %d) rejected: %v", c.args, c.run, c.parallel, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v (run flags %v, parallel %d) = %v, want error mentioning %s", c.args, c.run, c.parallel, err, c.want)
		}
	}

	opts, err := parse(true, "-scale", "8192", "-slaves", "3", "-racks", "2", "-uplink", "40",
		"-tier", "ssd", "-seed", "7", "-input-fraction", "0.5", "-sample-interval", "5ms", "-scrub", "-1", "-hist").Options(0)
	if err != nil {
		t.Fatal(err)
	}
	// -scrub leaves Integrity unset: core.RunOneContext implies it.
	want := core.Options{Scale: 8192, Slaves: 3, Racks: 2, UplinkBPS: 40 << 20, IntermediateTier: disk.ClassSSD,
		Seed: 7, InputFraction: 0.5, SampleInterval: 5 * time.Millisecond, ScrubRate: -1}
	if got := core.NewOptions(opts...); !reflect.DeepEqual(got, want) {
		t.Errorf("options from flags:\n got  %+v\n want %+v", got, want)
	}
	// Without the run flags only the cluster shape is set, at the tool's defaults.
	opts, err = parse(false).Options(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.NewOptions(opts...), (core.Options{Scale: 262144, Slaves: 5, Racks: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("shape-only options:\n got  %+v\n want %+v", got, want)
	}
}

// The warning is a function of -scale alone: silent while capacities stay
// proportional, one line — the text the provisioning bus used to print — once
// the fleet's disks sit on the floor.
func TestWarnClamps(t *testing.T) {
	warn := func(scale string) string {
		t.Helper()
		var tb Testbed
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		tb.Register(fs, 4096, 10)
		if err := fs.Parse([]string{"-scale", scale}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tb.WarnClamps(&buf, "testtool")
		return buf.String()
	}
	if got := warn("4096"); got != "" {
		t.Errorf("-scale 4096 warned: %q", got)
	}
	const want = "testtool: warning: disk: scaling ST1000NM0011 by 1048576 wants 1907 sectors, clamped to the 65536-sector floor (capacity ratios no longer hold at this scale)\n"
	if got := warn("1048576"); got != want {
		t.Errorf("-scale 1048576 printed\n %q\nwant\n %q", got, want)
	}
}
