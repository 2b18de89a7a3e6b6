package main

import (
	"reflect"
	"strings"
	"testing"
)

// Regression: chaos never validated its numeric flags, so `-runs 0` ran
// nothing and reported success. (The testbed flags -scale/-slaves/-parallel
// had the same defect; cliutil.Testbed checks those for every runner — see
// TestTestbedOptions there.)
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 3); err != nil {
		t.Errorf("the flag defaults were rejected: %v", err)
	}
	cases := []struct {
		want           string
		runs, maxFault int
	}{
		{"-runs", 0, 3},
		{"-runs", -2, 3},
		{"-max-faults", 8, 0},
	}
	for _, c := range cases {
		err := validateFlags(c.runs, c.maxFault)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%d,%d) = %v, want error mentioning %q", c.runs, c.maxFault, err, c.want)
		}
	}
}

func TestReplayConflicts(t *testing.T) {
	cases := []struct {
		set  []string
		want []string
	}{
		{nil, nil},
		{[]string{"replay", "v"}, nil},
		{[]string{"replay", "runs"}, []string{"runs"}},
		{[]string{"soak", "replay", "workload"}, []string{"soak", "workload"}},
		{[]string{"runs", "soak", "workload"}, []string{"runs", "soak", "workload"}},
		{[]string{"scale", "slaves", "seed", "out"}, nil},
	}
	for _, c := range cases {
		if got := replayConflicts(c.set); !reflect.DeepEqual(got, c.want) {
			t.Errorf("replayConflicts(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}
