package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/sim"
)

// benchEntries buffers n pairs over 16 partitions in one of the three key
// shapes a spill sees: "terasort", random printable 10-byte keys, so nearly
// every pair is placed by its prefix; "kmeans", 16 decimal keys with 72-byte
// values, so every prefix ties and every tie is decided by it; and
// "shared-prefix", 40-byte keys that differ only in the last byte, where no
// digit of the prefix tells two entries apart and the comparator does all the
// work.
func benchEntries(shape string, n int) sortBuf {
	rng := rand.New(rand.NewSource(1))
	ms := &mapState{rt: &Runtime{cfg: Config{SortBufBytes: int64(n) * 128}}}
	key := bytes.Repeat([]byte("k"), 40)
	val := make([]byte, 72)
	for i := 0; i < n; i++ {
		switch shape {
		case "terasort":
			for j := range key[:10] {
				key[j] = byte(' ' + rng.Intn(95))
			}
			ms.add(nil, i%16, key[:10], nil)
		case "kmeans":
			c := rng.Intn(16)
			ms.add(nil, c, strconv.AppendInt(nil, int64(c), 10), val)
		case "shared-prefix":
			key[39] = byte(rng.Intn(256))
			ms.add(nil, i%16, key, nil)
		}
	}
	return ms.sortBuf
}

func BenchmarkSortKVEntries(b *testing.B) {
	for _, shape := range []string{"terasort", "kmeans", "shared-prefix"} {
		b.Run(shape, func(b *testing.B) {
			src := benchEntries(shape, 1<<14)
			buf := sortBuf{arena: src.arena, ents: make([]kvEnt, len(src.ents))}
			var work radixWork
			b.SetBytes(int64(len(src.arena)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf.ents, src.ents)
				buf.sortKVEntries(&work)
			}
		})
	}
}

// benchRun is a sorted run of n pairs, 10-byte keys and 90-byte values;
// run i of fan has the keys congruent to i, so the runs of one merge are
// disjoint and interleave pair by pair.
func benchRun(n, i, fan int) run {
	val := bytes.Repeat([]byte("v"), 90)
	var r run
	for j := 0; j < n; j++ {
		r = AppendKV(r, []byte(fmt.Sprintf("%010d", j*fan+i)), val)
	}
	return r
}

// teraSortRuns deals 20 000 pairs with random printable 10-byte keys and
// 90-byte values, TeraSort's records, across fan sorted runs at random: which
// run holds the next smallest key is as hard to predict as it is in a
// TeraSort merge.
func teraSortRuns(fan int) []run {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]string, fan)
	for i := 0; i < 20000; i++ {
		k := make([]byte, 10)
		for j := range k {
			k[j] = byte(' ' + rng.Intn(95))
		}
		r := rng.Intn(fan)
		keys[r] = append(keys[r], string(k))
	}
	val := bytes.Repeat([]byte("v"), 90)
	runs := make([]run, fan)
	for i, ks := range keys {
		slices.Sort(ks)
		for _, k := range ks {
			runs[i] = AppendKV(runs[i], []byte(k), val)
		}
	}
	return runs
}

func BenchmarkMergeRuns(b *testing.B) {
	interleaved := func(fan int) []run {
		runs := make([]run, fan)
		for i := range runs {
			runs[i] = benchRun(4096/fan, i, fan)
		}
		return runs
	}
	for _, c := range []struct {
		name string
		fan  int
		runs func(fan int) []run
	}{
		{"fanin-2", 2, interleaved},
		{"fanin-8", 8, interleaved},
		{"fanin-64", 64, interleaved},
		{"random-fanin-2", 2, teraSortRuns},
		{"random-fanin-8", 8, teraSortRuns},
		{"random-fanin-12", 12, teraSortRuns},
	} {
		b.Run(c.name, func(b *testing.B) {
			runs := c.runs(c.fan)
			rt := new(Runtime)
			b.ResetTimer()
			var total int
			for i := 0; i < b.N; i++ {
				merged, pooled := rt.mergeRuns(runs)
				total += len(merged)
				rt.recycleMerged(merged, pooled)
			}
			if total == 0 {
				b.Fatal("merge produced nothing")
			}
			b.SetBytes(int64(total / b.N))
		})
	}
}

func BenchmarkGroupRun(b *testing.B) {
	r := benchRun(8192, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := 0
		newMerger([]run{r}).groups(func(k []byte, vs [][]byte) { groups++ })
		if groups != 8192 {
			b.Fatal("bad grouping")
		}
	}
	b.SetBytes(int64(len(r)))
}

func BenchmarkHashPartition(b *testing.B) {
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%07d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashPartition(keys[i%len(keys)], 20)
	}
}

// BenchmarkAblationCombiner contrasts a word-count-shaped job's shuffle
// volume with and without the map-side combiner, on the live runtime.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, withCombiner := range []bool{true, false} {
		name := "combiner"
		if !withCombiner {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			var shuffle int64
			for i := 0; i < b.N; i++ {
				rig := newBenchRig()
				parts, _ := textParts()
				rig.loadLines("/in", parts)
				job := wordCountJob(rig.inputs("/in"), "/out")
				if withCombiner {
					job.Combiner = sumCombiner()
				}
				var res *Result
				var err error
				rig.env.Go("driver", func(p *sim.Proc) {
					res, err = rig.rt.Run(p, job)
				})
				rig.env.Run(0)
				if err != nil {
					b.Fatal(err)
				}
				shuffle = res.ShuffleBytes
			}
			b.ReportMetric(float64(shuffle)/1024, "shuffle-KB")
		})
	}
}

// newBenchRig mirrors newRig without *testing.T plumbing.
func newBenchRig() *testRig {
	env := sim.New(1)
	cl, err := cluster.New(env, cluster.DefaultHardware(8192), 4)
	if err != nil {
		panic(err)
	}
	fs := hdfs.New(env, hdfs.DefaultConfig(8192), cl.Net, cl.Slaves)
	cfg := DefaultConfig(8192)
	cfg.MapSlots, cfg.ReduceSlots = 2, 2
	rt, err := New(env, cl, fs, cfg)
	if err != nil {
		panic(err)
	}
	return &testRig{env: env, cl: cl, fs: fs, rt: rt}
}
