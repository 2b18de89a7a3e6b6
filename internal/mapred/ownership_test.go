package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iochar/internal/sim"
)

// rangeSortJob is TeraSort's shape at test size: 100-byte records keyed by
// their first ten bytes, an identity reducer and a range partitioner on the
// key's first byte, so that a map whose input is sorted spills runs that
// each cover a few partitions — some partitions then come from one spill
// alone, and a merge of them is a lone run.
func rangeSortJob(in []string, out string, format RecordFormat, mapper Mapper) *Job {
	const nparts = 8
	return &Job{
		Name:   "rangesort" + out,
		Input:  in,
		Output: out,
		Format: format,
		Mapper: mapper,
		Reducer: ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
			for _, v := range vals {
				emit(k, v)
			}
		}),
		Partitioner:       func(k []byte, n int) int { return int(k[0]) * n / 256 },
		NumReduces:        nparts,
		OutputReplication: 1,
	}
}

// loadSortedRecords loads parts part files of 100-byte records with random
// values, each file's keys ascending over the whole key range.
func (r *testRig) loadSortedRecords(path string, parts, records int) {
	rng := rand.New(rand.NewSource(7))
	for i := range parts {
		data := make([]byte, records*100)
		rng.Read(data)
		for j := range records {
			data[j*100] = byte(j * 256 / records)
		}
		r.fs.Load(fmt.Sprintf("%s/part-%d", path, i), r.cl.Slaves[i%len(r.cl.Slaves)].Name, data)
	}
}

// partFiles returns the bytes of every part-r file under dir.
func (r *testRig) partFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	r.env.Go("reader", func(p *sim.Proc) {
		for _, path := range r.fs.List(dir + "/part-r-") {
			rd, err := r.fs.Open(path, r.cl.Slaves[0].Name)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			data, err := rd.ReadAt(p, 0, rd.Size())
			if err != nil {
				t.Errorf("read %s: %v", path, err)
				return
			}
			out[path] = data
		}
	})
	r.env.Run(0)
	return out
}

// TestRunArraysGoBackOnlyAfterTheirLastReader: with compression off, every
// array a run is stored in goes back to the runtime's free list when its
// last reader is done (see segment.own). Here each one is overwritten as it
// comes back, so an array given back while a file still serves its run —
// a lone spill run the map output took over, a fetched segment a reduce run
// took over, a spill the merge has not read yet — shows up as a job that
// fails or writes another output than with returns off. The jobs: a
// TeraSort-shaped one whose maps spill several times into partitions some
// spills leave empty, with reducers that spill every fetched segment alone;
// a word count with a combiner whose reducers merge segments in twos and
// threes; and a sort of that sort's output on the same runtime, so the
// second job runs on the first one's arrays.
func TestRunArraysGoBackOnlyAfterTheirLastReader(t *testing.T) {
	type outputs map[string]map[string][]byte
	run := func(scribble bool) (outputs, int) {
		puts := 0
		onPut := func(a run) bool {
			if !scribble {
				return false
			}
			puts++
			clear(a[:cap(a)])
			return true
		}
		got := outputs{}
		try := func(name string, fn func()) {
			defer func() {
				if e := recover(); e != nil {
					t.Errorf("returns on: %s panicked: %v", name, e)
				}
			}()
			fn()
		}
		try("sort chain", func() {
			r := newRig(t, func(c *Config) { c.SortBufBytes, c.ShuffleBufBytes = 4<<10, 1<<10 })
			r.rt.runs.onPut = onPut
			r.loadSortedRecords("/in", 4, 150)
			first := rangeSortJob(r.inputs("/in"), "/sorted", FixedFormat{Size: 100},
				MapperFunc(func(rec []byte, emit func(k, v []byte)) { emit(rec[:10], rec[10:]) }))
			if res := r.runJob(t, first); res.Spills <= int64(res.MapTasks) || res.ReduceSpills == 0 {
				t.Fatalf("%d spills of %d maps, %d reduce spills: want merges on both sides", res.Spills, res.MapTasks, res.ReduceSpills)
			}
			got["sort"] = r.partFiles(t, "/sorted")
			second := rangeSortJob(r.inputs("/sorted"), "/resorted", KVFormat{},
				MapperFunc(func(rec []byte, emit func(k, v []byte)) {
					k, v, _ := NextKV(rec)
					emit(v[:10], k)
				}))
			r.runJob(t, second)
			got["resort"] = r.partFiles(t, "/resorted")
		})
		try("word count", func() {
			r := newRig(t, func(c *Config) { c.SortBufBytes, c.ShuffleBufBytes = 4<<10, 64 })
			r.rt.runs.onPut = onPut
			parts, _ := textParts()
			r.loadLines("/in", parts)
			job := wordCountJob(r.inputs("/in"), "/out")
			job.Combiner = sumCombiner()
			if res := r.runJob(t, job); res.Spills <= int64(res.MapTasks) || res.ReduceSpills == 0 {
				t.Fatalf("%d spills of %d maps, %d reduce spills: want merges on both sides", res.Spills, res.MapTasks, res.ReduceSpills)
			}
			got["wordcount"] = r.partFiles(t, "/out")
		})
		return got, puts
	}
	want, _ := run(false)
	got, puts := run(true)
	if puts == 0 {
		t.Fatal("no array came back to the free list")
	}
	for job, files := range want {
		if len(files) == 0 {
			t.Errorf("%s: no output with returns off", job)
		}
		for path, data := range files {
			if !bytes.Equal(got[job][path], data) {
				t.Errorf("%s: %s differs when arrays go back to the free list", job, path)
			}
		}
	}
}

// TestSecondWaveOfMapsAllocatesNoRunArray: once a wave of compression-off
// map attempts has merged its spills and its outputs have been fetched and
// merged, every array the next, identical wave spills into or merges into
// is one of those that came back.
func TestSecondWaveOfMapsAllocatesNoRunArray(t *testing.T) {
	const nparts, nspills, width = 3, 3, 2
	r := newRig(t, nil)
	back := map[*byte]bool{}
	r.rt.runs.onPut = func(a run) bool {
		back[&a[:1][0]] = true
		return true
	}
	wave := func(p *sim.Proc, name string) (arrays []*byte) {
		for i := range width {
			ms := &mapState{rt: r.rt, job: &Job{NumReduces: nparts}, node: r.cl.Slaves[0], spillBase: fmt.Sprintf("m_%s_%d", name, i)}
			rng := rand.New(rand.NewSource(int64(i)))
			for s := range nspills {
				if s > 0 {
					ms.spill(p, false)
				}
				// Partition 2 only in the last spill: its merge is a lone run.
				for j := 0; j < 200; j++ {
					part := j % nparts
					if part == 2 && s < nspills-1 {
						part = j % 2
					}
					ms.add(p, part, []byte(fmt.Sprintf("key-%05d", rng.Intn(100000))), []byte("value"))
				}
			}
			out := ms.finish(p, 0)
			if out == nil {
				t.Fatalf("%s: attempt %d did not finish", name, i)
			}
			for _, sf := range ms.spills {
				for _, sg := range sf.segs {
					if sg.own != nil {
						arrays = append(arrays, &sg.own[0])
					}
				}
			}
			for _, sg := range out.segs {
				if sg.own == nil {
					t.Fatalf("%s: attempt %d's map output holds no array of its own", name, i)
				}
				arrays = append(arrays, &sg.own[0])
				r.rt.giveBack(sg.own) // its reducer has merged it
			}
			ms.recycle()
		}
		return arrays
	}
	r.env.Go("maps", func(p *sim.Proc) {
		first := wave(p, "first")
		if len(first) == 0 {
			t.Fatal("the first wave stored no array of its own")
		}
		for _, a := range wave(p, "second") {
			if !back[a] {
				t.Errorf("the second wave made a run array of its own (%d came back from the first)", len(back))
				return
			}
		}
	})
	r.env.Run(0)
}
