package core

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestParseWorkload(t *testing.T) {
	cases := map[string]Workload{
		"TS": TS, "ts": TS, "terasort": TS, " TeraSort ": TS,
		"AGG": AGG, "aggregation": AGG,
		"KM": KM, "kmeans": KM, "k-means": KM,
		"PR": PR, "pagerank": PR,
		"JOIN": Join, "join": Join,
	}
	for in, want := range cases {
		got, err := ParseWorkload(in)
		if err != nil || got != want {
			t.Errorf("ParseWorkload(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "XX", "terasort2", "all"} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) should fail", bad)
		}
	}
}

func TestWorkloadStringRoundTrip(t *testing.T) {
	for _, w := range []Workload{TS, AGG, KM, PR, Join} {
		back, err := ParseWorkload(w.String())
		if err != nil || back != w {
			t.Errorf("round trip %v -> %q -> %v, %v", w, w.String(), back, err)
		}
		if !w.Valid() {
			t.Errorf("%v not Valid", w)
		}
	}
	if Workload(0).Valid() || Workload(99).Valid() {
		t.Error("out-of-enum values must be invalid")
	}
	if Workload(99).String() != "invalid" {
		t.Errorf("invalid String = %q", Workload(99).String())
	}
}

// TestWorkloadTable: every constant resolves to its program, round-trips
// through ParseWorkload and has a positive paper input, and the figure order
// runs four distinct programs.
func TestWorkloadTable(t *testing.T) {
	want := map[Workload]string{
		TS: "*workloads.TeraSort", AGG: "*workloads.Aggregation", KM: "*workloads.KMeans",
		PR: "*workloads.PageRank", Join: "*workloads.Join",
	}
	for w, typ := range want {
		p := w.program()
		if got := fmt.Sprintf("%T", p); got != typ {
			t.Errorf("%v runs %s, want %s", w, got, typ)
			continue
		}
		if back, err := ParseWorkload(w.String()); err != nil || back != w {
			t.Errorf("ParseWorkload(%q) = %v, %v; want %v", w.String(), back, err, w)
		}
		if p.PaperInputBytes() <= 0 {
			t.Errorf("%v: non-positive paper input %d", w, p.PaperInputBytes())
		}
	}
	programs := map[string]bool{}
	for _, w := range WorkloadOrder {
		programs[fmt.Sprintf("%T", w.program())] = true
	}
	if len(programs) != 4 {
		t.Errorf("WorkloadOrder %v runs %d distinct programs, want 4", WorkloadOrder, len(programs))
	}
}

func TestWorkloadJSONEncoding(t *testing.T) {
	b, err := json.Marshal(TS)
	if err != nil || string(b) != `"TS"` {
		t.Fatalf("Marshal(TS) = %s, %v", b, err)
	}
	var w Workload
	if err := json.Unmarshal([]byte(`"agg"`), &w); err != nil || w != AGG {
		t.Errorf("Unmarshal = %v, %v", w, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &w); err == nil {
		t.Error("bogus name must not decode")
	}
	if _, err := json.Marshal(Workload(99)); err == nil {
		t.Error("invalid value must not encode")
	}
}

func TestWorkloadOrderIsFigureOrder(t *testing.T) {
	ws := WorkloadOrder
	if len(ws) != 4 || ws[0] != AGG || ws[1] != TS || ws[2] != KM || ws[3] != PR {
		t.Errorf("WorkloadOrder = %v", ws)
	}
}
