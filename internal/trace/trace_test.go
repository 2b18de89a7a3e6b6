package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

// collect retains dev's completed requests in memory: what the tests compare
// the streaming sink and the CSV codec against.
func collect(d *disk.Disk, dev string) *[]Record {
	recs := new([]Record)
	d.Subscribe(func(cp disk.Completion) {
		*recs = append(*recs, Record{
			Dev: dev, Op: cp.Op, Sector: cp.Sector, Count: cp.Count,
			Stage: cp.Stage, Arrived: cp.Arrived, Done: cp.Done,
		})
	})
	return recs
}

func collectSome(t *testing.T) []Record {
	t.Helper()
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	d := disk.New(env, p)
	c := collect(d, "sda")
	env.Go("io", func(pr *sim.Proc) {
		d.Do(pr, disk.Read, 0, 256)
		d.Do(pr, disk.Write, 1<<20, 64)
		d.Do(pr, disk.Read, 1<<21, 8)
	})
	env.Run(0)
	return *c
}

func TestCollectorObservesCompletions(t *testing.T) {
	recs := collectSome(t)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Dev != "sda" {
			t.Errorf("rec %d dev = %q", i, r.Dev)
		}
		if r.Done <= r.Arrived {
			t.Errorf("rec %d has non-positive latency", i)
		}
	}
	if recs[1].Op != disk.Write || recs[1].Count != 64 {
		t.Errorf("rec 1 = %+v, want the 64-sector write", recs[1])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := collectSome(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"dev,op,sector,count,arrived_ns,done_ns\nsda,X,0,1,0,1\n",
		"dev,op,sector,count,arrived_ns,done_ns\nsda,R,zero,1,0,1\n",
		"dev,op,sector,count,arrived_ns,done_ns\nsda,R,0,1,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestReplayPreservesWorkVolume(t *testing.T) {
	recs := collectSome(t)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	res, err := Replay(recs, "sda", p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 {
		t.Errorf("Requests = %d, want 3", res.Requests)
	}
	if got := res.DiskStats.SectorsRead + res.DiskStats.SectorsWritten; got != 256+64+8 {
		t.Errorf("sectors = %d, want 328", got)
	}
	if res.Elapsed <= 0 || res.MeanAwait <= 0 {
		t.Error("empty timing")
	}
}

func TestReplayUnknownDevice(t *testing.T) {
	if _, err := Replay(collectSome(t), "nvme9", disk.SeagateST1000NM0011()); err == nil {
		t.Error("want error")
	}
}

func TestReplaySchedulerComparison(t *testing.T) {
	// Build a seek-heavy trace, then replay under LOOK and FIFO: the
	// elevator must not be slower.
	env := sim.New(3)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	d := disk.New(env, p)
	c := collect(d, "sda")
	env.Go("io", func(pr *sim.Proc) {
		var reqs []*disk.Request
		for i := 0; i < 64; i++ {
			reqs = append(reqs, d.Submit(disk.Read, env.Rand().Int63n(1<<23), 8))
		}
		for _, r := range reqs {
			d.Wait(pr, r)
		}
	})
	env.Run(0)

	look := p
	look.Scheduler = disk.SchedLOOK
	fifo := p
	fifo.Scheduler = disk.SchedFIFO
	rl, err := Replay(*c, "sda", look)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Replay(*c, "sda", fifo)
	if err != nil {
		t.Fatal(err)
	}
	if rl.TotalBusy > rf.TotalBusy {
		t.Errorf("LOOK busy %v exceeds FIFO %v on a seek-heavy trace", rl.TotalBusy, rf.TotalBusy)
	}
}

func TestDevices(t *testing.T) {
	recs := []Record{{Dev: "b"}, {Dev: "a"}, {Dev: "b"}}
	got := Devices(recs)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Devices = %v", got)
	}
}

// Property: CSV round-trips arbitrary well-formed records exactly.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		var recs []Record
		for i, v := range raw {
			op := disk.Read
			if v%2 == 1 {
				op = disk.Write
			}
			recs = append(recs, Record{
				Dev:     "dev" + string(rune('0'+i%3)),
				Op:      op,
				Sector:  int64(v) * 7,
				Count:   int(v%1024) + 1,
				Arrived: time.Duration(v) * time.Microsecond,
				Done:    time.Duration(v)*time.Microsecond + time.Millisecond,
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, recs); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVHeaderless(t *testing.T) {
	recs := collectSome(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(buf.String(), "\n")
	if !ok {
		t.Fatal("no header line")
	}
	got, err := ReadCSV(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("headerless trace: %d records, want %d (first data line swallowed?)", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("rec %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVLegacySixFields(t *testing.T) {
	// Pre-stage traces have six columns; they must parse with StageNone.
	in := "dev,op,sector,count,arrived_ns,done_ns\nsda,W,128,64,1000,2000\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d records, want 1", len(got))
	}
	want := Record{Dev: "sda", Op: disk.Write, Sector: 128, Count: 64,
		Stage: disk.StageNone, Arrived: 1000, Done: 2000}
	if got[0] != want {
		t.Errorf("got %+v, want %+v", got[0], want)
	}
}

func TestReadCSVRejectsDoneBeforeArrived(t *testing.T) {
	in := "sda,R,0,8,2000,1000,hdfs\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Error("want error for done < arrived")
	} else if !strings.Contains(err.Error(), "precedes") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestReplayRequestFillsWholeDisk(t *testing.T) {
	// A request exactly the size of the replay disk used to divide by zero
	// in the wrap modulus; it must clamp to sector 0 and replay cleanly.
	recs := []Record{
		{Dev: "sda", Op: disk.Read, Sector: 4096, Count: 1024, Arrived: 0, Done: time.Millisecond},
		{Dev: "sda", Op: disk.Write, Sector: 9000, Count: 512, Arrived: time.Millisecond, Done: 2 * time.Millisecond},
	}
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1024
	res, err := Replay(recs, "sda", p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Errorf("Requests = %d, want 2", res.Requests)
	}
	if got := res.DiskStats.SectorsRead + res.DiskStats.SectorsWritten; got != 1024+512 {
		t.Errorf("sectors moved = %d, want 1536", got)
	}
}

func TestReplayOversizedRequestErrors(t *testing.T) {
	recs := []Record{
		{Dev: "sda", Op: disk.Read, Sector: 0, Count: 2048, Arrived: 0, Done: time.Millisecond},
	}
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1024
	if _, err := Replay(recs, "sda", p); err == nil {
		t.Error("want error for request larger than the replay disk")
	} else if !strings.Contains(err.Error(), "larger than replay disk") {
		t.Errorf("unhelpful error: %v", err)
	}
}
