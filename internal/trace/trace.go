// Package trace provides block-level I/O tracing and replay — the
// blktrace-style methodology behind storage characterization studies. A
// StreamCollector subscribes to one or more simulated disks and writes out
// every completed request (timestamp, device, op, sector, size, latency);
// traces are a simple CSV and can be replayed through a fresh disk model
// with a different configuration, answering "what would this exact workload
// have done on a FIFO scheduler / without merging / on a different drive".
package trace

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

// Record is one completed block-layer request.
type Record struct {
	Dev     string
	Op      disk.Op
	Sector  int64
	Count   int
	Stage   disk.Stage    // pipeline stage that issued the request
	Arrived time.Duration // submission time
	Done    time.Duration // completion time
}

// csvHeader is the column layout of a serialized trace. The stage column was
// added later; ReadCSV still accepts the older six-field layout.
const csvHeader = "dev,op,sector,count,arrived_ns,done_ns,stage"

// WriteCSV serializes records under the csvHeader layout, through the same
// row encoder as a CSV StreamCollector.
func WriteCSV(w io.Writer, recs []Record) error {
	s := NewStreamCollector(w)
	for _, r := range recs {
		s.Record(r.Dev, disk.Completion{Op: r.Op, Sector: r.Sector, Count: r.Count, Stage: r.Stage, Arrived: r.Arrived, Done: r.Done})
	}
	return s.Flush()
}

// ReadCSV parses a trace written by WriteCSV. The header line is recognized
// by content, so headerless traces (a common product of grep/split
// pipelines) keep their first record. Records whose completion precedes
// their arrival are rejected: no replay or latency analysis can make sense
// of them.
func ReadCSV(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "dev,op,") {
			continue // blank or header
		}
		f := strings.Split(text, ",")
		if len(f) != 6 && len(f) != 7 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 6 or 7", line, len(f))
		}
		var rec Record
		rec.Dev = f[0]
		switch f[1] {
		case "R":
			rec.Op = disk.Read
		case "W":
			rec.Op = disk.Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, f[1])
		}
		var err error
		if rec.Sector, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: sector: %v", line, err)
		}
		if rec.Count, err = strconv.Atoi(f[3]); err != nil {
			return nil, fmt.Errorf("trace: line %d: count: %v", line, err)
		}
		if rec.Sector < 0 || rec.Count <= 0 || rec.Sector > math.MaxInt64-int64(rec.Count) {
			return nil, fmt.Errorf("trace: line %d: [%d,+%d) is not a sector range", line, rec.Sector, rec.Count)
		}
		a, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: arrived: %v", line, err)
		}
		d, err := strconv.ParseInt(f[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: done: %v", line, err)
		}
		if d < a {
			return nil, fmt.Errorf("trace: line %d: done %d precedes arrived %d", line, d, a)
		}
		if len(f) == 7 {
			if rec.Stage, err = disk.ParseStage(f[6]); err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
		}
		rec.Arrived, rec.Done = time.Duration(a), time.Duration(d)
		out = append(out, rec)
	}
	return out, sc.Err()
}

// ReplayResult summarizes a replay.
type ReplayResult struct {
	Requests  int
	Elapsed   time.Duration // virtual time from first submission to last completion
	MeanAwait time.Duration
	TotalBusy time.Duration
	DiskStats disk.Stats
}

// Replay re-issues one device's requests against a fresh disk with params
// p, preserving the original inter-arrival times (open-loop replay, the
// standard trace-replay methodology). Records for other devices are
// ignored. It returns the replayed timing summary.
func Replay(recs []Record, dev string, p disk.Params) (*ReplayResult, error) {
	var mine []Record
	for _, r := range recs {
		if r.Dev == dev {
			mine = append(mine, r)
		}
	}
	if len(mine) == 0 {
		return nil, fmt.Errorf("trace: no records for device %q", dev)
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].Arrived < mine[j].Arrived })
	base := mine[0].Arrived

	// Validate before starting the simulation: a request that cannot fit on
	// the replay disk at all is a caller error, not something to clamp.
	for _, r := range mine {
		if r.Sector < 0 || r.Count <= 0 {
			return nil, fmt.Errorf("trace: [%d,+%d) is not a sector range", r.Sector, r.Count)
		}
		if int64(r.Count) > p.Sectors {
			return nil, fmt.Errorf("trace: request [%d,+%d) larger than replay disk (%d sectors)", r.Sector, r.Count, p.Sectors)
		}
	}

	env := sim.New(1)
	defer env.Close() // unwinds the replay process if Run ends early (a panic)
	d := disk.New(env, p)
	var reqs []*disk.Request
	env.Go("replay", func(pr *sim.Proc) {
		for _, r := range mine {
			pr.Sleep(r.Arrived - base - (pr.Now() - 0))
			sector, count := r.Sector, r.Count
			if sector > p.Sectors-int64(count) { // sector+count may overflow
				// Wrap out-of-range sectors onto the smaller replay disk.
				// The modulus p.Sectors-count+1 is always >= 1 (count <=
				// Sectors was checked above), so a request exactly the size
				// of the disk lands at sector 0 rather than dividing by
				// zero, and nothing ever goes negative.
				sector = sector % (p.Sectors - int64(count) + 1)
			}
			reqs = append(reqs, d.SubmitStaged(r.Op, sector, count, r.Stage))
		}
		for _, rq := range reqs {
			d.Wait(pr, rq)
		}
	})
	end, err := env.Run(0)
	if err != nil {
		return nil, err
	}

	st := d.Stats()
	res := &ReplayResult{
		Requests:  len(mine),
		Elapsed:   end,
		TotalBusy: st.IOTicks,
		DiskStats: st,
	}
	if n := st.ReadsCompleted + st.WritesCompleted; n > 0 {
		res.MeanAwait = (st.TimeReading + st.TimeWriting) / time.Duration(n)
	}
	return res, nil
}

// Devices returns the distinct device names in a trace, sorted.
func Devices(recs []Record) []string {
	set := map[string]bool{}
	for _, r := range recs {
		set[r.Dev] = true
	}
	return slices.Sorted(maps.Keys(set))
}
