package trace

import (
	"io"
	"testing"
	"time"

	"iochar/internal/disk"
)

// The streaming sink must not allocate per record: traces run to millions
// of requests, and a per-record allocation would dominate the simulation's
// heap churn. The encode buffer is grown once and reused forever.
func TestStreamCollectorRecordAllocs(t *testing.T) {
	c := disk.Completion{
		Op:      disk.Write,
		Sector:  123_456_789,
		Count:   1024,
		Arrived: 1500 * time.Millisecond,
		Done:    1502 * time.Millisecond,
	}
	for _, tc := range []struct {
		name   string
		ndjson bool
	}{
		{"csv", false},
		{"ndjson", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStreamCollector(io.Discard, tc.ndjson)
			s.Record("slave-03.mr1", c) // warm up: grow the encode buffer once
			allocs := testing.AllocsPerRun(1000, func() {
				s.Record("slave-03.mr1", c)
			})
			if allocs != 0 {
				t.Errorf("%s record path allocates %.1f objects per record, want 0", tc.name, allocs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
