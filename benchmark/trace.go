package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// A span is one interval on one of the trace's two clocks. Host spans wrap
// calls that do not block in virtual time; a span around Append or Transfer
// would swallow every other simulated process that ran meanwhile, which is
// why the sim-coupled layers get their host cost from profile buckets, not
// spans. Virtual spans are read off the simulation's own timestamps.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Track   string  `json:"track"`  // "host" or "virtual"
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

const (
	trackHost    = "host"
	trackVirtual = "virtual"
)

// tracer keeps spans in memory until the child exits. A nil tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex // suite progress callbacks fire from worker goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host span now and returns its id; end closes it.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.hostUS(time.Now())
	return t.add(trackHost, parent, name, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.hostUS(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// add records a finished span on either track.
func (t *tracer) add(track string, parent int, name string, startUS, endUS float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Track: track, Name: name, StartUS: startUS, EndUS: endUS})
	return len(t.spans)
}

func (t *tracer) hostUS(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

func virtUS(d time.Duration) float64 { return float64(d) / 1e3 }

// traceFile is the on-disk trace: every span of one traced child shares the
// run id.
type traceFile struct {
	Workload string `json:"workload"`
	RunID    string `json:"run_id"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(traceFile{
		Workload: workload,
		RunID:    fmt.Sprintf("%s-seed%d-%d", workload, seed, t.t0.UnixNano()),
		Seed:     seed,
		Spans:    t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
