package main

import (
	"reflect"
	"strings"
	"testing"
)

// Regression: chaos never validated its numeric flags, so `-scale -4` or
// `-slaves 0` fell through to the library's silent defaults and ran the
// scale-1024 / 10-slave experiment — indistinguishable from a hang.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(262144, 5, 1, 8, 3); err != nil {
		t.Errorf("the flag defaults were rejected: %v", err)
	}
	cases := []struct {
		want                             string
		scale                            int64
		slaves, parallel, runs, maxFault int
	}{
		{"-scale", -4, 5, 1, 8, 3},
		{"-scale", 0, 5, 1, 8, 3},
		{"-slaves", 262144, 0, 1, 8, 3},
		{"-parallel", 262144, 5, -1, 8, 3},
		{"-runs", 262144, 5, 1, 0, 3},
		{"-runs", 262144, 5, 1, -2, 3},
		{"-max-faults", 262144, 5, 1, 8, 0},
	}
	for _, c := range cases {
		err := validateFlags(c.scale, c.slaves, c.parallel, c.runs, c.maxFault)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%d,%d,%d,%d,%d) = %v, want error mentioning %q",
				c.scale, c.slaves, c.parallel, c.runs, c.maxFault, err, c.want)
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
