package faults

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParsePlanRoundTrip(t *testing.T) {
	in := "kill-datanode@15s:node=slave-02;" +
		"kill-node@20s:node=slave-01;" +
		"fail-disk@10s:node=slave-03,disk=hdfs1;" +
		"slow-disk@12s:node=slave-03,disk=mr0,factor=8;" +
		"drop-shuffle@8s:until=30s,prob=0.3"
	pl, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(pl.Events))
	}
	want := Event{Kind: SlowDisk, At: 12 * time.Second, Node: "slave-03", Disk: "mr0", Factor: 8}
	if !reflect.DeepEqual(pl.Events[3], want) {
		t.Errorf("event 3 = %+v, want %+v", pl.Events[3], want)
	}
	if pl.Events[4].Until != 30*time.Second || pl.Events[4].Prob != 0.3 {
		t.Errorf("drop-shuffle parsed wrong: %+v", pl.Events[4])
	}
	// String must re-parse to the same plan.
	again, err := ParsePlan(pl.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", pl.String(), err)
	}
	if !reflect.DeepEqual(pl, again) {
		t.Errorf("round trip changed the plan:\n %+v\n %+v", pl, again)
	}
}

func TestParsePlanEmpty(t *testing.T) {
	pl, err := ParsePlan("  ")
	if err != nil || !pl.Empty() {
		t.Fatalf("blank plan: %+v, %v", pl, err)
	}
}

func TestParsePlanRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"explode@5s:node=slave-01",              // unknown kind
		"kill-node@5s",                          // missing node
		"kill-datanode:node=slave-01",           // missing timestamp
		"slow-disk@5s:node=a,disk=mr0",          // missing factor
		"slow-disk@5s:node=a,disk=mr0,factor=1", // factor must be > 1
		"drop-shuffle@5s:until=2s,prob=0.5",     // window ends before it starts
		"drop-shuffle@5s:until=9s,prob=1.5",     // probability out of range
		"kill-node@5s:node=a,bogus=1",           // unknown argument
		"kill-node@5s:node=a,nodes=",            // empty value (found by FuzzParsePlan's seeds: parsed to Nodes [""], rendered without it)
		"slow-disk@5s:factor=NaN",               // NaN passed "factor <= 1" (same seeds)
		"drop-shuffle@5s:until=9s,prob=NaN",     // and "prob <= 0 || prob > 1"
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted bad input", s)
		}
	}
	// Arguments the kind ignores are rejected by name: a stray down= would
	// widen the event's outage window and the driver's settle time.
	for s, want := range map[string]string{
		"kill-datanode@5s:node=slave-01,down=3s":                                        "kill-datanode takes no down=",
		"kill-node@5s:node=a,factor=9,prob=0.5,until=1s,path=/x,disk=mr0,rack=3":        "kill-node takes no rack=",
		"restart-namenode@5s:down=1s,disk=mr0,factor=0.5":                               "restart-namenode takes no disk=",
		"restart-namenode@5s:node=a,down=1s":                                            "restart-namenode takes no node=",
		"partition@5s:nodes=a+b,down=1s,node=c":                                         "partition takes no node=",
		"fail-disk@5s:node=a,disk=hdfs0,factor=11":                                      "fail-disk takes no factor=",
		"restart-datanode@5s:node=a,down=1s;restart-datanode@9s:node=a,down=1s,nodes=b": "restart-datanode takes no nodes=",
		// No program runs a bare fail-disk: iosim takes only slow-disk.
		"fail-disk@5s:disk=hdfs0": "fail-disk needs node=",
		"fail-disk@5s:node=a":     "fail-disk needs disk=",
	} {
		_, err := ParsePlan(s)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParsePlan(%q) = %v, want an error containing %q", s, err, want)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	nodes := []string{"slave-00", "slave-01", "slave-02", "slave-03"}
	a := RandomPlan(7, nodes, 2*time.Minute, 6)
	b := RandomPlan(7, nodes, 2*time.Minute, 6)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different plans:\n %v\n %v", a, b)
	}
	c := RandomPlan(8, nodes, 2*time.Minute, 6)
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical plans: %v", a)
	}
	for _, ev := range a.Events {
		if err := ev.validate(); err != nil {
			t.Errorf("random event invalid: %v (%v)", ev, err)
		}
	}
	// Sorted by firing time.
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Errorf("events out of order: %v", a.Events)
		}
	}
}

func TestRandomPlanSingleNodeNeverKillsIt(t *testing.T) {
	pl := RandomPlan(3, []string{"slave-00"}, time.Minute, 20)
	for _, ev := range pl.Events {
		if ev.Kind == KillNode {
			t.Fatalf("single-node plan contains kill-node: %s", pl)
		}
	}
	if !strings.Contains(pl.String(), "@") {
		t.Fatalf("plan did not render: %q", pl.String())
	}
}

func TestParsePlanRestartAndCorruptRoundTrip(t *testing.T) {
	in := "restart-datanode@10s:node=slave-01,down=5s;" +
		"restart-node@20s:node=slave-02,down=2s;" +
		"corrupt-block@8s:node=slave-03;" +
		"corrupt-block@9s:path=/bench/TS/in/part-000"
	pl, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(pl.Events))
	}
	want := Event{Kind: RestartDataNode, At: 10 * time.Second, Node: "slave-01", Down: 5 * time.Second}
	if !reflect.DeepEqual(pl.Events[0], want) {
		t.Errorf("event 0 = %+v, want %+v", pl.Events[0], want)
	}
	if pl.Events[2].Node != "slave-03" || pl.Events[2].Path != "" {
		t.Errorf("node-targeted corrupt-block parsed wrong: %+v", pl.Events[2])
	}
	if pl.Events[3].Path != "/bench/TS/in/part-000" {
		t.Errorf("path-targeted corrupt-block parsed wrong: %+v", pl.Events[3])
	}
	again, err := ParsePlan(pl.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", pl.String(), err)
	}
	if !reflect.DeepEqual(pl, again) {
		t.Errorf("round trip changed the plan:\n %+v\n %+v", pl, again)
	}
}

func TestParsePlanRejectsBadRestartAndCorrupt(t *testing.T) {
	for _, s := range []string{
		"restart-datanode@10s:node=slave-01",     // missing down
		"restart-datanode@10s:down=5s",           // missing node
		"restart-node@10s:node=slave-01,down=0s", // zero outage
		"restart-node@10s:node=slave-01,down=-1s",
		"corrupt-block@5s", // needs node= or path=
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted bad input", s)
		}
	}
}

func TestRandomPlanRestartDownBounds(t *testing.T) {
	nodes := []string{"slave-00", "slave-01", "slave-02", "slave-03"}
	window := 2 * time.Minute
	seen := false
	for seed := int64(1); seed <= 60; seed++ {
		for _, ev := range RandomPlan(seed, nodes, window, 6).Events {
			if ev.Kind != RestartDataNode && ev.Kind != RestartNode {
				continue
			}
			seen = true
			if ev.Down < window/8 || ev.Down > window/8+window/4 {
				t.Fatalf("seed %d: restart down=%v outside [%v, %v]", seed, ev.Down, window/8, window/8+window/4)
			}
		}
	}
	if !seen {
		t.Fatal("no seed in 1..60 generated a restart event")
	}
}

func TestRandomPlanSingleNodeNeverRestartsWholeNode(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for _, ev := range RandomPlan(seed, []string{"slave-00"}, time.Minute, 10).Events {
			if ev.Kind == RestartNode || ev.Kind == KillNode {
				t.Fatalf("single-node plan contains %s", ev.Kind)
			}
		}
	}
}

func TestParsePlanNetworkFaultsRoundTrip(t *testing.T) {
	in := "partition@10s:nodes=slave-01+slave-02,down=20s;" +
		"partition@40s:rack=2,down=5s;" +
		"slow-link@5s:node=slave-03,factor=8;" +
		"slow-link@6s:rack=1,factor=4;" +
		"drop-link@8s:node=slave-04,until=30s,prob=0.3"
	pl, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(pl.Events))
	}
	want := Event{Kind: Partition, At: 10 * time.Second, Down: 20 * time.Second,
		Nodes: []string{"slave-01", "slave-02"}}
	if !reflect.DeepEqual(pl.Events[0], want) {
		t.Errorf("event 0 = %+v, want %+v", pl.Events[0], want)
	}
	if pl.Events[1].Rack != 2 || pl.Events[1].Nodes != nil {
		t.Errorf("rack partition parsed wrong: %+v", pl.Events[1])
	}
	if pl.Events[3].Rack != 1 || pl.Events[3].Factor != 4 {
		t.Errorf("rack slow-link parsed wrong: %+v", pl.Events[3])
	}
	if pl.Events[4].Until != 30*time.Second || pl.Events[4].Prob != 0.3 {
		t.Errorf("drop-link parsed wrong: %+v", pl.Events[4])
	}
	again, err := ParsePlan(pl.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", pl.String(), err)
	}
	if !reflect.DeepEqual(pl, again) {
		t.Errorf("round trip changed the plan:\n %+v\n %+v", pl, again)
	}
}

func TestParsePlanRejectsBadNetworkFaults(t *testing.T) {
	for _, s := range []string{
		"partition@10s:nodes=a+b",                // missing down
		"partition@10s:down=5s",                  // no target
		"partition@10s:nodes=a+b,rack=1,down=5s", // both targets
		"partition@10s:nodes=a++b,down=5s",       // empty node entry
		"slow-link@5s:node=a",                    // missing factor
		"slow-link@5s:factor=8",                  // no target
		"slow-link@5s:node=a,rack=1,factor=8",    // both targets
		"slow-link@5s:rack=1,factor=1",           // factor must be > 1
		"drop-link@5s:until=30s,prob=0.3",        // missing node
		"drop-link@5s:node=a,until=2s,prob=0.3",  // window ends before start
		"drop-link@5s:node=a,until=30s,prob=0",   // probability out of range
		"drop-link@5s:node=a,until=30s,prob=1.5", // probability out of range
		"partition@1s:nodes=a,rack=-1,down=1s",   // racks are 1-indexed
		"slow-link@1s:node=a,rack=-3,factor=2",   // racks are 1-indexed
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted bad input", s)
		}
	}
}

func TestValidatePartitionOverlap(t *testing.T) {
	// Disjoint concurrent cuts are fine; so are back-to-back cuts of the
	// same nodes. On four slaves and two racks, rack 1 holds the master,
	// slave-00 and slave-02.
	for _, s := range []string{
		"partition@10s:nodes=slave-00+slave-01,down=20s;partition@15s:nodes=slave-02+slave-03,down=5s",
		"partition@10s:nodes=slave-00+slave-01,down=5s;partition@20s:nodes=slave-00+slave-01,down=5s",
		"partition@10s:rack=1,down=20s;partition@15s:rack=2,down=5s",
		"partition@10s:nodes=slave-01+slave-03,down=20s;partition@15s:rack=1,down=5s",
	} {
		if _, err := mustPlan(t, s).Resolve(4, 2, false); err != nil {
			t.Errorf("Resolve(%q) rejected a valid plan: %v", s, err)
		}
	}
	// Concurrent cuts sharing a node: the first heal would reunite it.
	for _, s := range []string{
		"partition@10s:nodes=slave-00+slave-01,down=20s;partition@15s:nodes=slave-01+slave-02,down=5s",
		"partition@10s:rack=2,down=20s;partition@15s:rack=2,down=5s",
		"partition@10s:nodes=slave-00+slave-01,down=20s;partition@15s:rack=1,down=5s",
	} {
		if _, err := mustPlan(t, s).Resolve(4, 2, false); err == nil || !strings.Contains(err.Error(), "overlaps an in-flight partition window") {
			t.Errorf("Resolve(%q) = %v, want the overlap refused", s, err)
		}
	}
}

func TestRandomPlanGeneratesNetworkFaults(t *testing.T) {
	nodes := []string{"slave-00", "slave-01", "slave-02", "slave-03", "slave-04"}
	window := 2 * time.Minute
	kinds := map[Kind]bool{}
	for seed := int64(1); seed <= 120; seed++ {
		pl := RandomPlan(seed, nodes, window, 6)
		for _, ev := range pl.Events {
			kinds[ev.Kind] = true
			if ev.Kind != Partition {
				continue
			}
			if len(ev.Nodes) < 1 || len(ev.Nodes) > (len(nodes)-1)/2 {
				t.Fatalf("seed %d: partition cut size %d outside [1, %d]", seed, len(ev.Nodes), (len(nodes)-1)/2)
			}
			if ev.Down < window/8 || ev.Down > window/8+window/4 {
				t.Fatalf("seed %d: partition down=%v outside [%v, %v]", seed, ev.Down, window/8, window/8+window/4)
			}
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("seed %d: invalid random plan: %v", seed, err)
		}
	}
	for _, k := range []Kind{Partition, SlowLink, DropLink} {
		if !kinds[k] {
			t.Errorf("no seed in 1..120 generated %s", k)
		}
	}
}

func TestRandomPlanSingleNodeNeverPartitions(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for _, ev := range RandomPlan(seed, []string{"slave-00"}, time.Minute, 10).Events {
			if ev.Kind == Partition {
				t.Fatalf("single-node plan contains %s", ev.Kind)
			}
		}
	}
}

// TestGoldenRandomPlans pins the generator: RandomPlan's schedule for a seed
// is part of every checked-in chaos verdict, so a change to what it draws —
// or to the order it draws in — must show up here as a reviewed diff.
// Regenerate deliberately with IOCHAR_UPDATE_GOLDEN=1.
func TestGoldenRandomPlans(t *testing.T) {
	const path = "testdata/random_plans.txt"
	var buf strings.Builder
	for _, nodes := range [][]string{
		{"slave-00", "slave-01", "slave-02", "slave-03", "slave-04"},
		{"slave-00"},
	} {
		for seed := int64(1); seed <= 64; seed++ {
			pl := RandomPlan(seed, nodes, 200*time.Millisecond, int(1+seed%6))
			fmt.Fprintf(&buf, "nodes=%d seed=%d %s\n", len(nodes), seed, pl)
			again, err := ParsePlan(pl.String())
			if err != nil || !reflect.DeepEqual(again.Events, pl.Events) {
				t.Errorf("seed %d on %d node(s): %q does not round-trip: %v", seed, len(nodes), pl, err)
			}
		}
	}
	got := buf.String()
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("random plans diverged from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("random plans diverged from %s (golden is longer)", path)
	}
}

// FuzzParsePlan: any string is rejected with an error or parses to a plan
// that its own String() reproduces exactly — the property the chaos
// harness's saved schedules and the CLIs' -faults flag both lean on.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"",
		"kill-node@20s:node=slave-01;fail-disk@10s:node=slave-03,disk=hdfs1",
		"slow-disk@12s:node=slave-03,disk=mr0,factor=8;drop-shuffle@8s:until=30s,prob=0.3",
		"restart-datanode@10s:node=slave-01,down=5s;corrupt-block@9s:path=/bench/TS/in/part-000",
		"restart-namenode@300ms:down=60ms;restart-jobtracker@330ms:down=60ms",
		"partition@5s:nodes=a+b,down=1s;partition@9s:rack=2,down=1s",
		"slow-link@5s:rack=1,factor=4;drop-link@6s:node=a,until=7s,prob=0.5",
		"kill-node@5s:node=a,nodes=",
		"slow-disk@5s:factor=NaN",
		"slow-disk@5s:factor=Inf",
		"partition@1s:nodes=a,rack=-1,down=1s",
		"slow-link@1s:node=a,rack=-3,factor=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := ParsePlan(s)
		if err != nil {
			return
		}
		again, err := ParsePlan(pl.String())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, pl, err)
		}
		if !reflect.DeepEqual(again.Events, pl.Events) {
			t.Fatalf("%q -> %q changed the plan:\n %+v\n %+v", s, pl, pl.Events, again.Events)
		}
	})
}
