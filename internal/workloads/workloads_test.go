package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

type rig struct {
	env *sim.Env
	cl  *cluster.Cluster
	fs  *hdfs.FS
	rt  *mapred.Runtime
}

func newRig() *rig {
	env := sim.New(1)
	cl, err := cluster.New(env, cluster.DefaultHardware(16384), 4)
	if err != nil {
		panic(err)
	}
	fs := hdfs.New(env, hdfs.DefaultConfig(16384), cl.Net, cl.Slaves)
	cfg := mapred.DefaultConfig(16384)
	cfg.MapSlots, cfg.ReduceSlots = 4, 2
	rt, err := mapred.New(env, cl, fs, cfg)
	if err != nil {
		panic(err)
	}
	return &rig{env: env, cl: cl, fs: fs, rt: rt}
}

// runWorkload prepares and runs a workload, returning its results.
func (r *rig) runWorkload(t *testing.T, w Workload, bytes int64) []*mapred.Result {
	t.Helper()
	w.Prepare(r.fs, r.cl, NewPartTable(), bytes, 42)
	var results []*mapred.Result
	var err error
	r.env.Go("driver", func(p *sim.Proc) {
		results, err = w.Run(p, r.rt, r.fs, r.cl)
	})
	r.env.Run(0)
	if err != nil {
		t.Fatalf("%T failed: %v", w, err)
	}
	if len(results) == 0 {
		t.Fatalf("%T returned no results", w)
	}
	return results
}

// readKVOutput collects key/value pairs from a part-file directory.
func (r *rig) readKVOutput(t *testing.T, dir string) [][2][]byte {
	t.Helper()
	var out [][2][]byte
	r.env.Go("reader", func(p *sim.Proc) {
		for _, path := range r.fs.List(dir + "/part-r-") {
			rd, err := r.fs.Open(path, r.cl.Master.Name)
			if err != nil {
				t.Errorf("open %s: %v", path, err)
				return
			}
			data, err := rd.ReadAt(p, 0, rd.Size())
			if err != nil {
				panic(err)
			}
			for len(data) > 0 {
				k, v, rest := mapred.NextKV(data)
				out = append(out, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
				data = rest
			}
		}
	})
	r.env.Run(0)
	return out
}

// keyed is a program together with the key that names its HDFS layout.
type keyed interface {
	Workload
	key() string
}

// TestByKeyAndAll: every program answers to its paper abbreviation, which
// names its HDFS layout, the five keys are distinct, and each has a positive
// paper input. core.Workload maps its constants onto these programs.
func TestByKeyAndAll(t *testing.T) {
	want := map[string]keyed{
		"TS": NewTeraSort(), "AGG": NewAggregation(), "KM": NewKMeans(),
		"PR": NewPageRank(), "JOIN": NewJoin(),
	}
	dirs := map[string]string{}
	for k, w := range want {
		if w.key() != k {
			t.Errorf("%T keyed %q, want %q", w, w.key(), k)
		}
		if w.PaperInputBytes() <= 0 {
			t.Errorf("%s: non-positive paper input", k)
		}
		for _, d := range []string{inputDir(w.key()), outputDir(w.key())} {
			if other, dup := dirs[d]; dup {
				t.Errorf("%s and %s share %s", other, k, d)
			}
			dirs[d] = k
		}
	}
}

func TestTeraSortProducesGloballySortedOutput(t *testing.T) {
	r := newRig()
	ts := NewTeraSort()
	results := r.runWorkload(t, ts, 300_000)
	res := results[0]
	if res.MapInputRecords == 0 {
		t.Fatal("no input records")
	}
	if res.ReduceOutputRecords != res.MapInputRecords {
		t.Errorf("records out %d != in %d (sort must be a permutation)", res.ReduceOutputRecords, res.MapInputRecords)
	}
	// Outputs concatenated in partition order must be globally sorted.
	var prev []byte
	var total int64
	r.env.Go("verify", func(p *sim.Proc) {
		for _, path := range r.fs.List(outputDir("TS") + "/part-r-") {
			rd, err := r.fs.Open(path, r.cl.Master.Name)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := rd.ReadAt(p, 0, rd.Size())
			if err != nil {
				panic(err)
			}
			for len(data) > 0 {
				k, _, rest := mapred.NextKV(data)
				if prev != nil && bytes.Compare(prev, k) > 0 {
					t.Errorf("output not globally sorted: %q after %q", k, prev)
					return
				}
				prev = append(prev[:0], k...)
				total++
				data = rest
			}
		}
	})
	r.env.Run(0)
	if total != res.ReduceOutputRecords {
		t.Errorf("verified %d records, counters claim %d", total, res.ReduceOutputRecords)
	}
	// TeraSort moves its whole input through the shuffle.
	if res.MapOutputBytes < res.MapInputBytes*9/10 {
		t.Errorf("map output %d far below input %d; TeraSort should shuffle everything", res.MapOutputBytes, res.MapInputBytes)
	}
}

func TestAggregationMatchesSerialReference(t *testing.T) {
	r := newRig()
	agg := NewAggregation()
	results := r.runWorkload(t, agg, 300_000)

	// Serial reference over the same generated parts.
	want := map[string]int64{}
	gen := datagen.OrderGen{Seed: 42}
	per := int64(300_000) / int64(len(r.cl.Slaves))
	for i := range r.cl.Slaves {
		datagen.Lines(gen.Part(i, per), func(line []byte) {
			f := strings.Split(string(line), "|")
			price, _ := strconv.Atoi(f[4])
			qty, _ := strconv.Atoi(f[5])
			want[f[3]] += int64(price * qty)
		})
	}
	got := map[string]int64{}
	for _, kv := range r.readKVOutput(t, outputDir("AGG")) {
		n, err := strconv.ParseInt(string(kv[1]), 10, 64)
		if err != nil {
			t.Fatalf("bad sum %q", kv[1])
		}
		if _, dup := got[string(kv[0])]; dup {
			t.Errorf("category %s appears twice", kv[0])
		}
		got[string(kv[0])] = n
	}
	if len(got) != len(want) {
		t.Errorf("categories: got %d, want %d", len(got), len(want))
	}
	for cat, sum := range want {
		if got[cat] != sum {
			t.Errorf("category %s: got %d, want %d", cat, got[cat], sum)
		}
	}
	// AGG output is tiny relative to input.
	res := results[0]
	if res.ReduceOutputBytes*10 > res.MapInputBytes {
		t.Errorf("AGG output %d not ≪ input %d", res.ReduceOutputBytes, res.MapInputBytes)
	}
}

func TestKMeansIterationsConvergeAndClusterPassLabelsAll(t *testing.T) {
	r := newRig()
	results := r.runWorkload(t, NewKMeans(), 300_000)
	if len(results) != kmeansIterations+1 {
		t.Fatalf("got %d job results, want %d iterations + clustering", len(results), kmeansIterations+1)
	}
	iter, clusterRes := results[0], results[len(results)-1]
	// Iteration output (centroid partials) is tiny; clustering output ~ input.
	if iter.ReduceOutputBytes >= clusterRes.ReduceOutputBytes {
		t.Errorf("iteration output %d should be ≪ clustering output %d",
			iter.ReduceOutputBytes, clusterRes.ReduceOutputBytes)
	}
	if clusterRes.ReduceOutputBytes < clusterRes.MapInputBytes/2 {
		t.Errorf("clustering output %d should be near input %d (labels every point)",
			clusterRes.ReduceOutputBytes, clusterRes.MapInputBytes)
	}
	// All labels parse and stay in range.
	labels := map[int]int64{}
	for _, kv := range r.readKVOutput(t, outputDir("KM")) {
		c, err := strconv.Atoi(string(kv[0]))
		if err != nil || c < 0 || c >= numCenters {
			t.Fatalf("bad cluster label %q", kv[0])
		}
		labels[c]++
	}
	if len(labels) < 2 {
		t.Errorf("all points in %d cluster(s); clustering degenerate", len(labels))
	}
	var labelled int64
	for _, n := range labels {
		labelled += n
	}
	if labelled != clusterRes.MapInputRecords {
		t.Errorf("labelled %d of %d points", labelled, clusterRes.MapInputRecords)
	}
}

func TestPageRankRanksFavorHighInDegree(t *testing.T) {
	r := newRig()
	pr := NewPageRank()
	r.runWorkload(t, pr, 200_000)

	// Serial in-degree reference from the same generated parts.
	indeg := map[string]int{}
	gen := datagen.GraphGen{Seed: 42}
	per := int64(200_000) / int64(len(r.cl.Slaves))
	for i := range r.cl.Slaves {
		datagen.Lines(gen.Part(i, per), func(line []byte) {
			f := strings.Split(string(line), "\t")
			indeg[f[1]]++
		})
	}
	var ranks map[string]float64
	r.env.Go("reader", func(p *sim.Proc) {
		ranks = pr.ReadRanks(p, r.fs, r.cl)
	})
	r.env.Run(0)
	if len(ranks) == 0 {
		t.Fatal("no ranks")
	}
	var sum float64
	for node, rank := range ranks {
		if rank <= 0 {
			t.Fatalf("non-positive rank %f for %s", rank, node)
		}
		sum += rank
	}
	mean := sum / float64(len(ranks))
	// The highest in-degree vertex should be well above the mean rank.
	best, bestDeg := "", 0
	for n, d := range indeg {
		if d > bestDeg {
			best, bestDeg = n, d
		}
	}
	if ranks[best] < 2*mean {
		t.Errorf("hub %s (in-degree %d) rank %f not ≫ mean %f", best, bestDeg, ranks[best], mean)
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	run := func() string {
		r := newRig()
		agg := NewAggregation()
		r.runWorkload(t, agg, 150_000)
		kvs := r.readKVOutput(t, outputDir("AGG"))
		var sb strings.Builder
		var lines []string
		for _, kv := range kvs {
			lines = append(lines, fmt.Sprintf("%s=%s", kv[0], kv[1]))
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if run() != run() {
		t.Error("AGG output differs across identical runs")
	}
}

func TestRunWithoutPrepareErrors(t *testing.T) {
	r := newRig()
	for _, w := range []Workload{NewAggregation(), NewTeraSort(), NewKMeans(), NewPageRank(), NewJoin()} {
		var err error
		r.env.Go("driver", func(p *sim.Proc) {
			_, err = w.Run(p, r.rt, r.fs, r.cl)
		})
		r.env.Run(0)
		if err == nil {
			t.Errorf("%T: Run before Prepare should error", w)
		}
	}
}

func TestJoinMatchesSerialReference(t *testing.T) {
	r := newRig()
	j := NewJoin()
	results := r.runWorkload(t, j, 400_000)
	res := results[0]
	if res.MapInputRecords == 0 || res.ReduceOutputRecords == 0 {
		t.Fatalf("empty join: in=%d out=%d", res.MapInputRecords, res.ReduceOutputRecords)
	}

	// Serial reference: regenerate both tables and join them directly.
	frac := 1.0 / 16
	per := int64(float64(400_000)*(1-frac)) / int64(len(r.cl.Slaves))
	dimPer := int64(float64(400_000)*frac) / int64(len(r.cl.Slaves))
	region := map[string]string{}
	gen := datagen.UserGen{Seed: 42}
	for i := range r.cl.Slaves {
		datagen.Lines(gen.Part(i, dimPer), func(line []byte) {
			f := strings.Split(string(line), "|")
			region[f[0]] = f[2]
		})
	}
	orders := datagen.OrderGen{Seed: 42}
	var wantRows int64
	for i := range r.cl.Slaves {
		datagen.Lines(orders.Part(i, per), func(line []byte) {
			f := strings.Split(string(line), "|")
			if _, ok := region[f[1]]; ok {
				wantRows++
			}
		})
	}
	if wantRows == 0 {
		t.Fatal("reference join empty; generators out of sync")
	}
	var gotRows int64
	for _, kv := range r.readKVOutput(t, outputDir("JOIN")) {
		f := strings.Split(string(kv[1]), "|")
		if len(f) != 4 { // name|region|price|qty
			t.Fatalf("bad joined row %q", kv[1])
		}
		if want := region[string(kv[0])]; f[1] != want {
			t.Fatalf("user %s joined to region %s, want %s", kv[0], f[1], want)
		}
		gotRows++
	}
	if gotRows != wantRows {
		t.Errorf("joined rows = %d, want %d", gotRows, wantRows)
	}
}

// TestExtensionsRegistry: the Join extension keeps to its own layout, so
// preparing it leaves every paper workload's input and output empty.
func TestExtensionsRegistry(t *testing.T) {
	r := newRig()
	j := NewJoin()
	if j.key() != "JOIN" {
		t.Fatalf("Join keyed %q", j.key())
	}
	j.Prepare(r.fs, r.cl, NewPartTable(), 100_000, 42)
	if len(r.fs.List(inputDir(j.key())+"/")) == 0 {
		t.Fatal("Join prepared no input")
	}
	for _, w := range []keyed{NewAggregation(), NewTeraSort(), NewKMeans(), NewPageRank()} {
		for _, d := range []string{inputDir(w.key()), outputDir(w.key())} {
			if got := r.fs.List(d); len(got) != 0 {
				t.Errorf("preparing Join wrote %v under %s's %s", got, w.key(), d)
			}
		}
	}
}

// TestTotalOrderPartitionMatchesCompareSearch: routing by prefix first, and
// by the full keys only on a prefix tie, sends every key where the binary
// search over bytes.Compare sends it — keys shorter than eight bytes, "a"
// against "a\x00" (one prefix), keys equal to a splitter, keys sharing a
// splitter's first eight bytes, and TeraGen's keys — for every reduce count
// up to one past the splitters.
func TestTotalOrderPartitionMatchesCompareSearch(t *testing.T) {
	search := func(splitters [][]byte, key []byte, n int) int {
		i := sort.Search(len(splitters), func(i int) bool { return bytes.Compare(key, splitters[i]) < 0 })
		return min(i, n-1)
	}
	pool := []string{"", "\x00", "a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00",
		"ab", "b", "prefix_", "prefix__", "prefix__\x00", "prefix__a", "prefix__b", "prefix__ba", "prefiy",
		"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00"}
	keys := slices.Clone(pool)
	var tera []string // TeraGen keys, every other one a splitter below
	data := datagen.TeraGen{Seed: 3}.Part(0, 20*datagen.RecordSize)
	for i := 0; i < 20; i++ {
		k := string(datagen.Key(data, i*datagen.RecordSize))
		keys = append(keys, k, k[:8], k[:9], k[:8]+"\x00", k[:8]+"~~") // the key, then keys that share its prefix
		if i%2 == 0 {
			tera = append(tera, k)
		}
	}
	for _, splitterSet := range [][]string{
		{"a", "a\x00", "prefix__", "prefix__b"},
		{"", "a\x00\x00\x00\x00\x00\x00\x00", "ab", "prefix__a", "\xff\xff\xff\xff\xff\xff\xff\xff"},
		tera,
	} {
		splitters := make([][]byte, len(splitterSet))
		for i, s := range splitterSet {
			splitters[i] = []byte(s)
		}
		slices.SortFunc(splitters, bytes.Compare)
		part := totalOrderPartition(splitters)
		for n := 1; n <= len(splitters)+1; n++ {
			for _, k := range keys {
				if got, want := part([]byte(k), n), search(splitters, []byte(k), n); got != want {
					t.Errorf("splitters %q, %d reduces: key %q to %d, want %d", splitters, n, k, got, want)
				}
			}
		}
	}
}
