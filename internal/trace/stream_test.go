package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/sim"
)

// driveMixed issues a deterministic mixed read/write pattern (8 batches of
// 32 stage-tagged requests at pseudo-random sectors) and runs the sim to
// completion. Two invocations produce identical completion streams, which
// the simultaneous-observer tests below rely on.
func driveMixed(env *sim.Env, d *disk.Disk) {
	env.Go("io", func(pr *sim.Proc) {
		x := int64(12345)
		for b := 0; b < 8; b++ {
			var reqs []*disk.Request
			for i := 0; i < 32; i++ {
				x = (x*6364136223846793005 + 1442695040888963407) & (1<<62 - 1)
				op := disk.Read
				if (b+i)%3 == 0 {
					op = disk.Write
				}
				stage := disk.Stage((b + i) % disk.NumStages)
				reqs = append(reqs, d.SubmitStaged(op, x%(1<<23), 8, stage))
			}
			for _, r := range reqs {
				d.Wait(pr, r)
			}
			pr.Sleep(time.Millisecond)
		}
	})
	env.Run(0)
}

func mixedDisk() (*sim.Env, *disk.Disk) {
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	return env, disk.New(env, p)
}

func TestStreamCollectorMatchesWriteCSV(t *testing.T) {
	env, d := mixedDisk()
	c := collect(d, "sda")
	var got bytes.Buffer
	s := NewStreamCollector(&got)
	s.Attach(d, "sda")
	driveMixed(env, d)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 || s.Len() != len(*c) {
		t.Fatalf("stream saw %d records, collector %d", s.Len(), len(*c))
	}
	var want bytes.Buffer
	if err := WriteCSV(&want, *c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed CSV differs from WriteCSV of the same records")
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *c) {
		t.Errorf("streamed CSV does not round-trip to the collected records")
	}
}

func TestStreamCollectorNDJSON(t *testing.T) {
	env, d := mixedDisk()
	c := collect(d, "sda")
	var buf bytes.Buffer
	s := newStreamCollector(&buf, true)
	s.Attach(d, "sda")
	driveMixed(env, d)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(*c) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(*c))
	}
	for i, line := range lines {
		var obj struct {
			Dev       string `json:"dev"`
			Op        string `json:"op"`
			Sector    int64  `json:"sector"`
			Count     int    `json:"count"`
			ArrivedNs int64  `json:"arrived_ns"`
			DoneNs    int64  `json:"done_ns"`
			Stage     string `json:"stage"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		r := (*c)[i]
		wantOp := "R"
		if r.Op == disk.Write {
			wantOp = "W"
		}
		if obj.Dev != r.Dev || obj.Op != wantOp || obj.Sector != r.Sector ||
			obj.Count != r.Count || obj.ArrivedNs != int64(r.Arrived) ||
			obj.DoneNs != int64(r.Done) || obj.Stage != r.Stage.String() {
			t.Fatalf("line %d = %+v, want record %+v", i+1, obj, r)
		}
	}
}

// TestSimultaneousStreamAndHistograms is the tentpole's acceptance check:
// a streaming trace sink and per-request histograms attached to the same
// disk in the same run each produce exactly what they produce alone.
func TestSimultaneousStreamAndHistograms(t *testing.T) {
	run := func(attach func(*disk.Disk)) {
		env, d := mixedDisk()
		attach(d)
		driveMixed(env, d)
	}

	var aloneCSV bytes.Buffer
	aloneStream := NewStreamCollector(&aloneCSV)
	run(func(d *disk.Disk) { aloneStream.Attach(d, "sda") })
	if err := aloneStream.Close(); err != nil {
		t.Fatal(err)
	}

	aloneHists := iostat.NewHists()
	run(func(d *disk.Disk) { d.Subscribe(aloneHists.Observe) })

	var bothCSV bytes.Buffer
	bothStream := NewStreamCollector(&bothCSV)
	bothHists := iostat.NewHists()
	run(func(d *disk.Disk) {
		bothStream.Attach(d, "sda")
		d.Subscribe(bothHists.Observe)
	})
	if err := bothStream.Close(); err != nil {
		t.Fatal(err)
	}

	if bothStream.Len() == 0 {
		t.Fatal("combined run streamed no records")
	}
	if uint64(bothStream.Len()) != bothHists.Requests {
		t.Errorf("stream saw %d requests, histograms %d", bothStream.Len(), bothHists.Requests)
	}
	if !bytes.Equal(bothCSV.Bytes(), aloneCSV.Bytes()) {
		t.Errorf("stream output with histograms attached differs from stream alone")
	}
	if !reflect.DeepEqual(bothHists, aloneHists) {
		t.Errorf("histograms with stream attached differ from histograms alone")
	}
}

// countingWriter discards its input, keeping only byte and line counts.
type countingWriter struct {
	bytes int64
	lines int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// TestStreamCollectorBoundedMemory drives well over 1e5 completions through
// a stream sink and checks that the only retained state is the fixed encode
// buffer — the sink must not accumulate records.
func TestStreamCollectorBoundedMemory(t *testing.T) {
	const n = 150_000
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 24
	p.NoMerge = true // every Submit must surface as its own completion
	d := disk.New(env, p)
	cw := &countingWriter{}
	s := NewStreamCollector(cw)
	s.Attach(d, "sda")
	env.Go("io", func(pr *sim.Proc) {
		done := 0
		for done < n {
			batch := 64
			if n-done < batch {
				batch = n - done
			}
			reqs := make([]*disk.Request, 0, batch)
			for i := 0; i < batch; i++ {
				sector := int64(done+i) * 16 % (1 << 24)
				reqs = append(reqs, d.Submit(disk.Read, sector, 1))
			}
			for _, r := range reqs {
				d.Wait(pr, r)
			}
			done += batch
		}
	})
	env.Run(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("streamed %d records, want %d", s.Len(), n)
	}
	if w := cw.lines; w != n+1 { // header + one line per record
		t.Errorf("wrote %d lines, want %d", w, n+1)
	}
	if c := cap(s.buf); c > 1024 {
		t.Errorf("encode buffer grew to %d bytes over %d records; want O(1)", c, n)
	}
}

func BenchmarkStreamCollectorRecord(b *testing.B) {
	s := NewStreamCollector(&countingWriter{})
	c := disk.Completion{
		Op: disk.Write, Sector: 123456789, Count: 256, Stage: disk.StageSpill,
		Arrived: 1234 * time.Millisecond, Done: 1250 * time.Millisecond,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Record("slave-03.mr1", c)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
