package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/mapred"
)

// testOpts is the smallest testbed with enough slaves for interesting
// schedules (node kills need survivors above the replication factor).
func testOpts() Options {
	return Options{
		Core:      core.Options{Scale: 262144, Slaves: 5, MapTaskTarget: 8, Seed: 1},
		MaxFaults: 3,
	}
}

// TestChaosTeraSortSurvivesSeeds: the recovery machinery survives a spread
// of generated schedules with every oracle green — the harness's baseline
// contract against the current code.
func TestChaosTeraSortSurvivesSeeds(t *testing.T) {
	h := New(testOpts())
	verdicts, err := h.RunSeeds(context.Background(), core.TS, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.Survived {
			t.Errorf("seed %d (%s): %v", v.Schedule.ChaosSeed, v.Schedule.Plan, v.Findings)
		}
		if v.Schedule.Plan == "" {
			t.Errorf("seed %d generated an empty plan", v.Schedule.ChaosSeed)
		}
		if v.Wall == 0 {
			t.Errorf("seed %d verdict carries no wall time", v.Schedule.ChaosSeed)
		}
	}
}

// TestChaosKMeansFloatTolerance: K-means writes full-precision float sums
// whose low bits legitimately depend on value arrival order; a chaos run
// must judge those numerically instead of failing on reassociated sums.
func TestChaosKMeansFloatTolerance(t *testing.T) {
	h := New(testOpts())
	v, err := h.RunSeed(context.Background(), core.KM, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Survived {
		t.Errorf("KM seed 3 (%s): %v", v.Schedule.Plan, v.Findings)
	}
}

// TestChaosDeterministicAcrossParallelism is the determinism contract: one
// seed yields byte-identical schedule JSON, counters, and verdicts, whether
// seeds run one at a time or concurrently.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	marshal := func(vs []*Verdict) string {
		t.Helper()
		b, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	opts := testOpts()
	seq, err := New(opts).RunSeeds(context.Background(), core.TS, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := New(opts).RunSeeds(context.Background(), core.TS, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshal(seq), marshal(par); a != b {
		t.Errorf("verdicts diverged across parallelism:\n seq %s\n par %s", a, b)
	}
	for i, v := range seq {
		a, err := v.Schedule.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := par[i].Schedule.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("schedule JSON for seed %d not byte-identical", v.Schedule.ChaosSeed)
		}
	}
}

// TestCorruptionOracleAcceptance is the integrity acceptance scenario: a
// schedule corrupting a replica of every workload's input passes every
// oracle (read-repair or the post-run scrub heals it before judgement),
// while the same schedule with integrity verification disabled serves the
// rotten bytes into the job and fails the output-checksum oracle.
func TestCorruptionOracleAcceptance(t *testing.T) {
	ctx := context.Background()
	h := New(testOpts())
	for _, w := range core.WorkloadOrder {
		// Corrupt at 100 µs — after setup loads the inputs, before any map
		// task has streamed the first block off a disk. Several events, each
		// flipping bytes in a randomly chosen replica of the part, so the
		// copy the (deterministically scheduled) map actually reads is dirty
		// no matter which replica holder the task lands on.
		in := fmt.Sprintf("/bench/%s/in/part-00000", w)
		plan := fmt.Sprintf(
			"corrupt-block@100µs:path=%[1]s;corrupt-block@150µs:path=%[1]s;"+
				"corrupt-block@200µs:path=%[1]s;corrupt-block@250µs:path=%[1]s", in)
		pl, err := faults.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		g, err := h.goldenFor(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		findings, expected, rep, err := h.check(ctx, w, pl, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 0 || len(expected) != 0 {
			t.Errorf("%s: corruption under integrity broke an oracle: %v %v", w, findings, expected)
		}
		if rep != nil && rep.Recovery.CorruptReplicas == 0 {
			t.Errorf("%s: the corruption was never detected (read-repair and scrub both missed it)", w)
		}

		// Same schedule, verification off: the corrupted replica is read
		// as-is, so the downstream output must diverge from the golden run.
		opts := h.opts.Core
		opts.Faults = pl
		opts.Audit = true
		raw := map[string][]byte{}
		opts.Inspect = captureFloatOutputs(raw)
		rep2, err := core.RunOneContext(ctx, w, core.SlotsRuns[0], opts)
		if err != nil {
			t.Fatalf("%s without integrity: %v", w, err)
		}
		if fs := CompareOutputs(g.sums, rep2.Audit.OutputSums, g.raw, raw); len(fs) == 0 {
			t.Errorf("%s: output matched the golden run despite unverified corruption — the checksum oracle has no teeth", w)
		}
	}
}

// TestBrokenRecoveryCaughtAndShrunk deliberately disables the map
// re-execution budget (one attempt, Hadoop's retry machinery off) and
// asserts the harness catches the resulting failures and shrinks the
// schedule to a minimal reproduction of at most two faults.
func TestBrokenRecoveryCaughtAndShrunk(t *testing.T) {
	opts := testOpts()
	opts.Core.TuneMapred = func(c *mapred.Config) { c.MaxTaskAttempts = 1 }
	h := New(opts)
	for seed := int64(1); seed <= 12; seed++ {
		v, err := h.RunSeed(context.Background(), core.TS, seed)
		if err != nil {
			t.Fatal(err)
		}
		if v.Survived {
			continue
		}
		if v.Shrunk == nil {
			t.Fatalf("seed %d failed without a shrunk schedule: %v", seed, v.Findings)
		}
		pl, err := faults.ParsePlan(v.Shrunk.Plan)
		if err != nil {
			t.Fatalf("shrunk plan does not parse: %v", err)
		}
		if len(pl.Events) > 2 {
			t.Errorf("seed %d shrunk to %d faults (%s), want <= 2", seed, len(pl.Events), v.Shrunk.Plan)
		}
		if len(pl.Events) == 0 {
			t.Errorf("seed %d shrunk to an empty plan", seed)
		}
		return
	}
	t.Fatal("no seed in 1..12 tripped the broken recovery budget")
}

// TestNarrowedHalvesByArgument: the shrinker's second phase narrows by
// argument, not by kind — a failing restart-namenode schedule's down= is
// halved like any other outage (the per-kind switch this replaced forgot
// both master restarts), a partition proposes the smaller cut first, and a
// kill has nothing to narrow.
func TestNarrowedHalvesByArgument(t *testing.T) {
	for _, tc := range []struct {
		plan string
		want []string
	}{
		{"restart-namenode@40ms:down=24ms", []string{"restart-namenode@40ms:down=12ms"}},
		{"restart-jobtracker@40ms:down=24ms", []string{"restart-jobtracker@40ms:down=12ms"}},
		{"partition@10ms:nodes=slave-01+slave-02,down=20ms", []string{
			"partition@10ms:nodes=slave-01,down=20ms",
			"partition@10ms:nodes=slave-01+slave-02,down=10ms",
		}},
		{"drop-link@10ms:node=slave-01,until=30ms,prob=0.4", []string{
			"drop-link@10ms:node=slave-01,until=20ms,prob=0.4",
			"drop-link@10ms:node=slave-01,until=30ms,prob=0.2",
		}},
		{"slow-disk@10ms:node=slave-01,disk=mr0,factor=2", nil},
		{"kill-node@10ms:node=slave-01", nil},
	} {
		pl, err := faults.ParsePlan("kill-datanode@1ms:node=slave-00;" + tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		pl.Seed = 7
		var got []string
		for _, cand := range narrowed(pl, 1) {
			if cand.Seed != pl.Seed || cand.Events[0].String() != pl.Events[0].String() {
				t.Errorf("%s: candidate %s changed the seed or a sibling event", tc.plan, cand)
			}
			got = append(got, cand.Events[1].String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("narrowed(%s) = %q, want %q", tc.plan, got, tc.want)
		}
	}
}

// TestReplayCheckedInSchedules replays every schedule under testdata/chaos —
// survived schedules saved by past chaos runs, kept as regressions against
// the recovery paths they exercised.
func TestReplayCheckedInSchedules(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no schedules under testdata/chaos")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ParseSchedule(data)
			if err != nil {
				t.Fatal(err)
			}
			v, err := Replay(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Survived {
				t.Errorf("%s (%s): %v", s.Workload, s.Plan, v.Findings)
			}
		})
	}
}

// TestScheduleTierRoundTrip: the tier field survives schedule
// serialization — a flash-targeted fail-slow regression is only a
// regression if its replay rebuilds the same tiered fleet — and the
// checked-in flash schedule really records flash.
func TestScheduleTierRoundTrip(t *testing.T) {
	s := Schedule{
		Workload: "TS",
		Plan:     "slow-disk@50ms:node=slave-01,disk=mr0,factor=8",
		PlanSeed: 17, Scale: 16384, Slaves: 3, Seed: 1, MapTaskTarget: 8,
		Tier: disk.ClassSSD,
	}
	b, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip changed the schedule: %+v -> %+v", s, got)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "chaos", "TS-ssd-failslow.json"))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ParseSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Tier != disk.ClassSSD {
		t.Errorf("TS-ssd-failslow.json parsed with tier %v, want ssd", cs.Tier)
	}
}

// TestGeneratePlanDeterministic: plan generation is a pure function of the
// seed, and respects the schedule-size cap.
func TestGeneratePlanDeterministic(t *testing.T) {
	nodes := Nodes(5)
	for seed := int64(1); seed <= 50; seed++ {
		a := GeneratePlan(seed, nodes, 100_000_000, 3)
		b := GeneratePlan(seed, nodes, 100_000_000, 3)
		if a.String() != b.String() || a.Seed != b.Seed {
			t.Fatalf("seed %d: %q != %q", seed, a, b)
		}
		if n := len(a.Events); n < 1 || n > 3 {
			t.Fatalf("seed %d: %d events, want 1..3", seed, n)
		}
		// Generated plans must survive a serialize/parse round trip.
		pl, err := faults.ParsePlan(a.String())
		if err != nil {
			t.Fatalf("seed %d: generated plan does not parse: %v", seed, err)
		}
		if pl.String() != a.String() {
			t.Fatalf("seed %d: round trip changed the plan", seed)
		}
	}
	if GeneratePlan(1, nodes, 100_000_000, 3).String() == GeneratePlan(2, nodes, 100_000_000, 3).String() {
		t.Error("seeds 1 and 2 generated identical plans")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	s := Schedule{
		Workload: "TS", ChaosSeed: 7, Plan: "kill-node@300ms:node=slave-02",
		PlanSeed: 7, Scale: 262144, Slaves: 5, Seed: 1, MapTaskTarget: 8,
	}
	b, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip changed the schedule:\n %+v\n %+v", got, s)
	}
	if _, err := ParseSchedule([]byte(`{"workload":"TS","plan":"explode@1s","scale":262144,"slaves":5}`)); err == nil {
		t.Error("bad plan syntax accepted")
	}
	if _, err := ParseSchedule([]byte(`{"workload":"nope","plan":"","scale":262144,"slaves":5}`)); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestParseSchedule: a schedule names its whole testbed. Regression: scale
// and slaves of 0 or below, and negative map-task targets, rack counts and
// uplink rates, were accepted and replayed on core's defaults (1/1024, 10
// slaves) — another experiment than the one the file records. A 0 where the
// JSON may omit the field still means the default.
func TestParseSchedule(t *testing.T) {
	const plan = `"workload":"TS","plan":"kill-node@5ms:node=slave-01"`
	for _, c := range []struct {
		json string
		ok   bool
	}{
		{`{` + plan + `,"scale":262144,"slaves":5}`, true},
		{`{` + plan + `,"scale":262144,"slaves":5,"map_task_target":0,"racks":0,"uplink_bps":0}`, true},
		{`{` + plan + `,"scale":262144,"slaves":5,"map_task_target":8,"racks":2,"uplink_bps":40000000}`, true},
		{`{` + plan + `,"scale":-5,"slaves":0,"map_task_target":-3,"racks":-2,"uplink_bps":-7}`, false},
		{`{` + plan + `}`, false},
		{`{` + plan + `,"scale":0,"slaves":5}`, false},
		{`{` + plan + `,"scale":-5,"slaves":5}`, false},
		{`{` + plan + `,"scale":262144}`, false},
		{`{` + plan + `,"scale":262144,"slaves":-1}`, false},
		{`{` + plan + `,"scale":262144,"slaves":5,"map_task_target":-3}`, false},
		{`{` + plan + `,"scale":262144,"slaves":5,"racks":-2}`, false},
		{`{` + plan + `,"scale":262144,"slaves":5,"uplink_bps":-7}`, false},
		// Targets the testbed lacks: a sixth slave, a TaskTracker on the
		// master, a third rack, a fourth intermediate disk.
		{`{"workload":"TS","plan":"kill-node@5ms:node=slave-05","scale":262144,"slaves":5}`, false},
		{`{"workload":"TS","plan":"kill-node@5ms:node=master","scale":262144,"slaves":5}`, false},
		{`{"workload":"TS","plan":"partition@5ms:rack=3,down=1s","scale":262144,"slaves":5,"racks":2}`, false},
		{`{"workload":"TS","plan":"fail-disk@5ms:node=slave-01,disk=mr3","scale":262144,"slaves":5}`, false},
		{`{"workload":"TS","plan":"fail-disk@5ms:node=slave-04,disk=mr2","scale":262144,"slaves":5}`, true},
	} {
		s, err := ParseSchedule([]byte(c.json))
		if (err == nil) != c.ok {
			t.Errorf("ParseSchedule(%s) = %+v, %v; want ok %v", c.json, s, err, c.ok)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil || len(paths) != 18 {
		t.Fatalf("%d pinned schedules (%v), want 18", len(paths), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSchedule(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// FuzzParseSchedule: parsing never panics, and a schedule it accepts comes
// back unchanged through Marshal and a second parse.
func FuzzParseSchedule(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"workload":"TS","plan":"kill-node@5ms:node=slave-01","scale":-5,"slaves":0,"map_task_target":-3,"racks":-2,"uplink_bps":-7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		b, err := s.Marshal()
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", s, err)
		}
		back, err := ParseSchedule(b)
		if err != nil {
			t.Fatalf("the marshalled schedule does not parse: %v\n%s", err, b)
		}
		if back != s {
			t.Fatalf("round trip changed the schedule:\n %+v\n %+v", s, back)
		}
	})
}

// kv builds a KV stream from alternating key, value strings.
func kv(t *testing.T, pairs ...string) []byte {
	t.Helper()
	if len(pairs)%2 != 0 {
		t.Fatal("kv wants key/value pairs")
	}
	var out []byte
	for i := 0; i < len(pairs); i += 2 {
		out = mapred.AppendKV(out, []byte(pairs[i]), []byte(pairs[i+1]))
	}
	return out
}

func TestCompareOutputsExact(t *testing.T) {
	want := map[string]string{"/bench/TS/out/part-r-00000": "aa", "/bench/TS/out/part-r-00001": "bb"}
	got := map[string]string{"/bench/TS/out/part-r-00000": "aa", "/bench/TS/out/part-r-00002": "cc"}
	fs := CompareOutputs(want, got, nil, nil)
	if len(fs) != 2 {
		t.Fatalf("findings = %v, want a missing and an unexpected output", fs)
	}
	joined := strings.Join(fs, "\n")
	for _, frag := range []string{"missing output", "unexpected output"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("findings %v lack %q", fs, frag)
		}
	}
	if fs := CompareOutputs(want, want, nil, nil); len(fs) != 0 {
		t.Errorf("identical sums produced findings: %v", fs)
	}
	got["/bench/TS/out/part-r-00001"] = "xx"
	delete(got, "/bench/TS/out/part-r-00002")
	fs = CompareOutputs(want, got, nil, nil)
	if len(fs) != 1 || !strings.Contains(fs[0], "checksum mismatch") {
		t.Errorf("findings = %v, want one checksum mismatch", fs)
	}
}

func TestCompareOutputsFloatTolerant(t *testing.T) {
	const p = "/bench/KM/out-iter0/part-r-00000"
	want := map[string]string{p: "aa"}
	got := map[string]string{p: "bb"}

	// Low-bit drift in a float field is tolerated.
	wraw := map[string][]byte{p: kv(t, "c1", "5;1000.0000000001;2.5", "c2", "0.5|a,b")}
	graw := map[string][]byte{p: kv(t, "c2", "0.5|a,b", "c1", "5;1000.0000000002;2.5")}
	if fs := CompareOutputs(want, got, wraw, graw); len(fs) != 0 {
		t.Errorf("low-bit float drift flagged: %v", fs)
	}
	// Real numeric divergence is not.
	graw[p] = kv(t, "c1", "5;1001;2.5", "c2", "0.5|a,b")
	if fs := CompareOutputs(want, got, wraw, graw); len(fs) != 1 {
		t.Errorf("diverged sum not flagged: %v", fs)
	}
	// Non-numeric fields must stay byte-exact even on tolerant paths.
	graw[p] = kv(t, "c1", "5;1000.0000000001;2.5", "c2", "0.5|a,X")
	if fs := CompareOutputs(want, got, wraw, graw); len(fs) != 1 {
		t.Errorf("adjacency corruption not flagged: %v", fs)
	}
	// Different counts, different shape, missing captures: all findings.
	graw[p] = kv(t, "c1", "6;1000.0000000001;2.5", "c2", "0.5|a,b")
	if fs := CompareOutputs(want, got, wraw, graw); len(fs) != 1 {
		t.Errorf("count drift not flagged: %v", fs)
	}
	if fs := CompareOutputs(want, got, wraw, map[string][]byte{}); len(fs) != 1 {
		t.Errorf("missing capture not flagged: %v", fs)
	}
}

// FuzzPlanRuns: a plan that ParsePlan accepts and Plan.Resolve accepts for a
// testbed runs on that testbed. On a tiny TeraSort testbed (scale 262144,
// three slaves, one or two racks) the run must not panic and must not fail
// at Injector.Start, which binds what the resolver let through: a target
// that passes the resolver and cannot be bound is a plan contract broken. A
// failed workload is not judged here — the oracles judge it. Plans whose
// faults reach past 2 s of virtual time, beyond the run's end, are skipped:
// the driver would only wait them out. Under -short the seeds run without
// the pinned schedules' plans and kill-node's, which waits out a stall of
// minutes of virtual time: about ten runs.
func FuzzPlanRuns(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if testing.Short() {
		paths = nil
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var s Schedule
		if err := json.Unmarshal(data, &s); err != nil {
			f.Fatal(err)
		}
		f.Add(s.Plan, uint8(s.Racks))
	}
	for _, plan := range []string{
		// A DataNode, TaskTracker or data disk on the master: rejected.
		"kill-node@300ms:node=master",
		"kill-datanode@300ms:node=master",
		"restart-node@300ms:node=master,down=50ms",
		"restart-datanode@300ms:node=master,down=50ms",
		"corrupt-block@300ms:node=master",
		// A live node without an intermediate volume: rejected.
		"fail-disk@100ms:node=slave-00,disk=mr0;fail-disk@110ms:node=slave-00,disk=mr1;fail-disk@120ms:node=slave-00,disk=mr2",
		// One plan per kind.
		"kill-datanode@100ms:node=slave-01",
		"kill-node@100ms:node=slave-01",
		"fail-disk@100ms:node=slave-02,disk=mr1",
		"slow-disk@100ms:node=slave-00,disk=hdfs0,factor=4",
		"drop-shuffle@50ms:until=300ms,prob=0.3",
		"restart-datanode@100ms:node=slave-02,down=50ms",
		"restart-node@100ms:node=slave-00,down=60ms",
		"corrupt-block@100ms:node=slave-01",
		"restart-namenode@80ms:down=40ms",
		"restart-jobtracker@120ms:down=25ms",
		"partition@100ms:nodes=master+slave-02,down=50ms",
		"slow-link@100ms:node=master,factor=3",
		"drop-link@100ms:node=slave-02,until=200ms,prob=0.3",
	} {
		if !testing.Short() || !strings.HasPrefix(plan, "kill-node@100ms") {
			f.Add(plan, uint8(1))
		}
	}
	f.Add("partition@100ms:rack=1,down=50ms;slow-link@200ms:rack=2,factor=3", uint8(2))
	f.Fuzz(func(t *testing.T, plan string, racks uint8) {
		r := min(max(int(racks), 1), 2)
		pl, err := faults.ParsePlan(plan)
		if err != nil {
			return
		}
		if _, err := pl.Resolve(3, r, false); err != nil {
			return
		}
		for _, ev := range pl.Events {
			if max(ev.At+ev.Down, ev.Until) > 2*time.Second {
				return
			}
		}
		opts := core.NewOptions(core.WithScale(262144), core.WithSlaves(3), core.WithRacks(r),
			core.WithSeed(1), core.WithFaults(pl))
		_, err = core.RunOne(core.TS, core.Factors{Slots: core.Slots1x8, MemoryGB: 16}, opts)
		if err != nil && strings.HasPrefix(err.Error(), "faults:") {
			t.Fatalf("%q passed Resolve on 3 slaves and %d rack(s), then failed at Start: %v", plan, r, err)
		}
	})
}
