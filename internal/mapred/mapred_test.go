package mapred

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/compress"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/journal"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// testRig is a small 4-slave cluster at aggressive scale.
type testRig struct {
	env *sim.Env
	cl  *cluster.Cluster
	fs  *hdfs.FS
	rt  *Runtime
}

func newRig(t *testing.T, mut func(*Config)) *testRig {
	t.Helper()
	return newRigAt(t, 8192, mut)
}

// newRigAt is newRig at another scale divisor: a smaller one for a job with
// megabytes of data (at 8192 an HDFS block is 16 KiB in a 1 MiB extent).
func newRigAt(t *testing.T, scale int64, mut func(*Config)) *testRig {
	t.Helper()
	env := sim.New(1)
	cl, err := cluster.New(env, cluster.DefaultHardware(scale), 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(env, hdfs.DefaultConfig(scale), cl.Net, cl.Slaves)
	cfg := DefaultConfig(scale)
	cfg.MapSlots, cfg.ReduceSlots = 2, 2
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(env, cl, fs, cfg)
	if err != nil {
		panic(err)
	}
	return &testRig{env: env, cl: cl, fs: fs, rt: rt}
}

// loadLines spreads text parts across slaves.
func (r *testRig) loadLines(path string, parts []string) {
	for i, part := range parts {
		r.fs.Load(fmt.Sprintf("%s/part-%d", path, i), r.cl.Slaves[i%len(r.cl.Slaves)].Name, []byte(part))
	}
}

// inputs lists the loaded part files.
func (r *testRig) inputs(path string) []string { return r.fs.List(path + "/") }

// runJob runs and returns the result, failing the test on error.
func (r *testRig) runJob(t *testing.T, job *Job) *Result {
	t.Helper()
	var res *Result
	var err error
	r.env.Go("driver", func(p *sim.Proc) {
		res, err = r.rt.Run(p, job)
	})
	r.env.Run(0)
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return res
}

// readOutput concatenates and parses all part-r files into a key->values map.
func (r *testRig) readOutput(t *testing.T, dir string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	var done bool
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
			for len(data) > 0 {
				k, v, rest := NextKV(data)
				out[string(k)] = append(out[string(k)], string(v))
				data = rest
			}
		}
		done = true
	})
	r.env.Run(0)
	if !done {
		t.Fatal("output reader did not finish")
	}
	return out
}

// wordCountJob is the canonical test job.
func wordCountJob(input []string, output string) *Job {
	return &Job{
		Name:   "wordcount",
		Input:  input,
		Output: output,
		Format: LineFormat{},
		Mapper: MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			for _, w := range bytes.Fields(rec) {
				emit(w, []byte("1"))
			}
		}),
		Reducer: ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
			sum := 0
			for _, v := range vals {
				n, _ := strconv.Atoi(string(v))
				sum += n
			}
			emit(k, []byte(strconv.Itoa(sum)))
		}),
		NumReduces: 3,
	}
}

func sumCombiner() Reducer {
	return ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
		sum := 0
		for _, v := range vals {
			n, _ := strconv.Atoi(string(v))
			sum += n
		}
		emit(k, []byte(strconv.Itoa(sum)))
	})
}

func textParts() ([]string, map[string]int) {
	words := []string{"pagerank", "terasort", "kmeans", "hive", "hdfs", "disk", "iostat", "await"}
	var parts []string
	want := map[string]int{}
	for p := 0; p < 4; p++ {
		var sb strings.Builder
		for i := 0; i < 400; i++ {
			w := words[(i*7+p*3)%len(words)]
			sb.WriteString(w)
			want[w]++
			if i%9 == 8 {
				sb.WriteByte('\n')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
		parts = append(parts, sb.String())
	}
	return parts, want
}

func checkWordCount(t *testing.T, got map[string][]string, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		vs := got[w]
		if len(vs) != 1 {
			t.Errorf("word %q has %d outputs, want 1", w, len(vs))
			continue
		}
		if vs[0] != strconv.Itoa(n) {
			t.Errorf("word %q = %s, want %d", w, vs[0], n)
		}
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	rig := newRig(t, nil)
	parts, want := textParts()
	rig.loadLines("/in", parts)
	job := wordCountJob(rig.inputs("/in"), "/out")
	res := rig.runJob(t, job)
	checkWordCount(t, rig.readOutput(t, "/out"), want)
	if res.MapTasks == 0 || res.ReduceTasks != 3 {
		t.Errorf("tasks = %d/%d", res.MapTasks, res.ReduceTasks)
	}
	if res.Runtime() <= 0 {
		t.Error("job consumed no virtual time")
	}
	if res.MapOutputRecords == 0 || res.ReduceInputRecords != res.MapOutputRecords {
		t.Errorf("record conservation: map out %d, reduce in %d", res.MapOutputRecords, res.ReduceInputRecords)
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	rig := newRig(t, nil)
	parts, want := textParts()
	rig.loadLines("/in", parts)
	job := wordCountJob(rig.inputs("/in"), "/out")
	job.Combiner = sumCombiner()
	res := rig.runJob(t, job)
	checkWordCount(t, rig.readOutput(t, "/out"), want)
	if res.CombineInput == 0 {
		t.Error("combiner never ran")
	}
	if res.ReduceInputRecords >= res.MapOutputRecords {
		t.Errorf("combiner did not shrink traffic: %d >= %d", res.ReduceInputRecords, res.MapOutputRecords)
	}
}

func TestCompressionShrinksIntermediate(t *testing.T) {
	run := func(codec compress.Codec) *Result {
		rig := newRig(t, func(c *Config) { c.Codec = codec })
		parts, _ := textParts()
		rig.loadLines("/in", parts)
		return rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	}
	plain := run(compress.Identity{})
	for _, codec := range []compress.Codec{compress.NewLZ(), compress.NewDeflate()} {
		packed := run(codec)
		if packed.CompressedMapOutput >= plain.CompressedMapOutput {
			t.Errorf("%s did not shrink map output: %d vs %d",
				codec.Name(), packed.CompressedMapOutput, plain.CompressedMapOutput)
		}
		if packed.ShuffleBytes >= plain.ShuffleBytes {
			t.Errorf("%s did not shrink shuffle: %d vs %d", codec.Name(), packed.ShuffleBytes, plain.ShuffleBytes)
		}
		// Same logical answer regardless of codec.
		if packed.ReduceInputRecords != plain.ReduceInputRecords {
			t.Errorf("%s changed record counts: %d vs %d", codec.Name(), packed.ReduceInputRecords, plain.ReduceInputRecords)
		}
	}
}

func TestTinySortBufferForcesSpillsAndMerge(t *testing.T) {
	rig := newRig(t, func(c *Config) { c.SortBufBytes = 4 << 10 })
	parts, want := textParts()
	rig.loadLines("/in", parts)
	res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	if res.Spills <= int64(res.MapTasks) {
		t.Errorf("Spills = %d with a 4KB buffer, want more than one per map (%d maps)", res.Spills, res.MapTasks)
	}
	checkWordCount(t, rig.readOutput(t, "/out"), want)
}

func TestTinyShuffleBufferForcesReduceSpills(t *testing.T) {
	rig := newRig(t, func(c *Config) { c.ShuffleBufBytes = 2 << 10 })
	parts, want := textParts()
	rig.loadLines("/in", parts)
	res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	if res.ReduceSpills == 0 {
		t.Error("no reduce-side spills with a 2KB shuffle buffer")
	}
	checkWordCount(t, rig.readOutput(t, "/out"), want)
}

func TestFixedFormatSplitsExactlyOnce(t *testing.T) {
	rig := newRig(t, nil)
	// 100-byte records; choose content so each record is identifiable.
	var data []byte
	const n = 500
	for i := 0; i < n; i++ {
		rec := make([]byte, 100)
		copy(rec, fmt.Sprintf("%010d", i))
		for j := 10; j < 100; j++ {
			rec[j] = 'x'
		}
		data = append(data, rec...)
	}
	rig.fs.Load("/fixed/part-0", rig.cl.Slaves[0].Name, data)
	job := &Job{
		Name:   "identity-fixed",
		Input:  []string{"/fixed/part-0"},
		Output: "/fixedout",
		Format: FixedFormat{Size: 100},
		Mapper: MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			emit(rec[:10], []byte("1"))
		}),
		Reducer:    sumCombiner().(ReducerFunc),
		NumReduces: 2,
	}
	res := rig.runJob(t, job)
	if res.MapInputRecords != n {
		t.Errorf("MapInputRecords = %d, want %d (exactly-once framing)", res.MapInputRecords, n)
	}
	if res.MapTasks < 2 {
		t.Errorf("MapTasks = %d, want multiple splits", res.MapTasks)
	}
	out := rig.readOutput(t, "/fixedout")
	if len(out) != n {
		t.Errorf("distinct keys = %d, want %d", len(out), n)
	}
}

func TestLineFormatBoundarySplits(t *testing.T) {
	rig := newRig(t, nil)
	// Lines sized to straddle the scaled block boundary irregularly.
	var data []byte
	const n = 400
	for i := 0; i < n; i++ {
		data = append(data, []byte(fmt.Sprintf("line-%04d %s\n", i, strings.Repeat("z", i%71)))...)
	}
	rig.fs.Load("/lines/part-0", rig.cl.Slaves[1].Name, data)
	job := wordCountJob([]string{"/lines/part-0"}, "/lineout")
	job.Mapper = MapperFunc(func(rec []byte, emit func(k, v []byte)) {
		f := bytes.Fields(rec)
		if len(f) > 0 {
			emit(f[0], []byte("1"))
		}
	})
	res := rig.runJob(t, job)
	if res.MapTasks < 2 {
		t.Skipf("content fit one split (%d tasks); boundary not exercised", res.MapTasks)
	}
	if res.MapInputRecords != n {
		t.Errorf("MapInputRecords = %d, want %d (lines lost or duplicated at split boundaries)", res.MapInputRecords, n)
	}
	out := rig.readOutput(t, "/lineout")
	if len(out) != n {
		t.Errorf("distinct keys = %d, want %d", len(out), n)
	}
}

func TestLocalityPreferred(t *testing.T) {
	rig := newRig(t, nil)
	parts, _ := textParts()
	rig.loadLines("/in", parts)
	res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	if res.LocalMaps == 0 {
		t.Error("no data-local map tasks; locality scheduling inert")
	}
	if res.LocalMaps+res.RemoteMaps != res.MapTasks {
		t.Errorf("locality accounting: %d+%d != %d", res.LocalMaps, res.RemoteMaps, res.MapTasks)
	}
}

func TestIntermediateFilesCleanedUp(t *testing.T) {
	rig := newRig(t, nil)
	parts, _ := textParts()
	rig.loadLines("/in", parts)
	rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	for _, s := range rig.cl.Slaves {
		for _, v := range s.MRVols {
			if files := v.List(); len(files) != 0 {
				t.Errorf("%s leaked intermediate files: %v", s.Name, files)
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	rig := newRig(t, nil)
	rig.fs.Load("/v/part-0", rig.cl.Slaves[0].Name, []byte("a b\n"))
	base := func() *Job { return wordCountJob([]string{"/v/part-0"}, "/vout") }
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"nil mapper", func(j *Job) { j.Mapper = nil }},
		{"nil reducer", func(j *Job) { j.Reducer = nil }},
		{"zero reduces", func(j *Job) { j.NumReduces = 0 }},
		{"no input", func(j *Job) { j.Input = nil }},
		{"no output", func(j *Job) { j.Output = "" }},
		{"nil format", func(j *Job) { j.Format = nil }},
		{"missing input", func(j *Job) { j.Input = []string{"/nope"} }},
	}
	for _, c := range cases {
		job := base()
		c.mut(job)
		var err error
		rig.env.Go("driver", func(p *sim.Proc) { _, err = rig.rt.Run(p, job) })
		rig.env.Run(0)
		if err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// Reducers launch once slowstartFrac of the maps (at least one) is done; the
// job's output is whole and its last map finishes before it ends.
func TestSlowstartDefersReducers(t *testing.T) {
	rig := newRig(t, nil)
	parts, want := textParts()
	rig.loadLines("/in", parts)
	res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	checkWordCount(t, rig.readOutput(t, "/out"), want)
	if res.MapsDone > res.End {
		t.Errorf("MapsDone %v after End %v", res.MapsDone, res.End)
	}
}

func TestHashPartitionRangeAndDeterminism(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte(""), []byte("zz12")}
	for _, k := range keys {
		p1, p2 := HashPartition(k, 7), HashPartition(k, 7)
		if p1 != p2 {
			t.Errorf("HashPartition(%q) nondeterministic", k)
		}
		if p1 < 0 || p1 >= 7 {
			t.Errorf("HashPartition(%q) = %d out of range", k, p1)
		}
	}
	if HashPartition([]byte("x"), 1) != 0 {
		t.Error("single partition must be 0")
	}
}

// modelMergeRuns is the linear-scan k-way merge the merger replaced,
// kept as its reference model: of equal keys the lowest run index wins, and
// every pair is re-encoded from its decoded key and value.
func modelMergeRuns(runs []run) run {
	type cursor struct {
		key, val, rest []byte
	}
	var cs []cursor
	for _, r := range runs {
		if len(r) > 0 {
			k, v, rest := NextKV(r)
			cs = append(cs, cursor{k, v, rest})
		}
	}
	var out run
	for len(cs) > 0 {
		best := 0
		for i := 1; i < len(cs); i++ {
			if bytes.Compare(cs[i].key, cs[best].key) < 0 {
				best = i
			}
		}
		out = AppendKV(out, cs[best].key, cs[best].val)
		if len(cs[best].rest) == 0 {
			cs = append(cs[:best], cs[best+1:]...)
			continue
		}
		k, v, rest := NextKV(cs[best].rest)
		cs[best] = cursor{k, v, rest}
	}
	return out
}

// modelGroupRun is the grouping loop that ran over a materialized merged
// run before the reduce side streamed.
func modelGroupRun(r run, fn func(key []byte, values [][]byte)) {
	var curKey []byte
	var vals [][]byte
	for len(r) > 0 {
		k, v, rest := NextKV(r)
		if curKey == nil || !bytes.Equal(k, curKey) {
			if curKey != nil {
				fn(curKey, vals)
			}
			curKey = k
			vals = vals[:0]
		}
		vals = append(vals, v)
		r = rest
	}
	if curKey != nil {
		fn(curKey, vals)
	}
}

// countKVs returns the number of pairs in a run.
func countKVs(r run) int64 {
	var n int64
	for len(r) > 0 {
		_, _, r = NextKV(r)
		n++
	}
	return n
}

// sortedRun reports whether r is sorted by key.
func sortedRun(r run) bool {
	var prev []byte
	for len(r) > 0 {
		k, _, rest := NextKV(r)
		if prev != nil && bytes.Compare(prev, k) > 0 {
			return false
		}
		prev = k
		r = rest
	}
	return true
}

func TestMergeRunsProperties(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) > 6 {
			raw = raw[:6]
		}
		var runs []run
		var all []string
		for _, seed := range raw {
			// Build a sorted run from the fuzz bytes.
			var keys []string
			for i := 0; i+1 < len(seed); i += 2 {
				keys = append(keys, string(seed[i:i+2]))
			}
			sort.Strings(keys)
			var r run
			for _, k := range keys {
				r = AppendKV(r, []byte(k), []byte("v"))
				all = append(all, k)
			}
			runs = append(runs, r)
		}
		merged, _ := new(Runtime).mergeRuns(runs)
		if !sortedRun(merged) {
			return false
		}
		return countKVs(merged) == int64(len(all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// mergeKeyPool is the key alphabet of TestMergerMatchesLinearScanModel:
// every way two keys can agree in their eight-byte prefixes and still differ
// (or not), next to keys the prefix alone decides.
var mergeKeyPool = []string{
	"",                 // empty key: prefix 0, as "\x00" and "\x00\x00" below
	"\x00", "\x00\x00", // differ from "" and each other only by trailing zeros
	"a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00", // the zero-padding collision, up to and past eight bytes
	"ab", "abc", "b", "zzzzzzz", // shorter than eight bytes
	"prefix__", "prefix__\x00", "prefix__a", "prefix__b", "prefix__ab", // equal in the first eight bytes
	"prefix_", "prefix_a", "prefiy__", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

// randomRuns draws n sorted runs over mergeKeyPool, each of up to 11 pairs,
// so they run out at different points of the merge. Keys repeat within and
// across runs; a value names the run and position it came from (every fourth
// is empty), so a wrong tie order changes the merged bytes. Some runs come
// out empty.
func randomRuns(rng *rand.Rand, n int) []run {
	runs := make([]run, n)
	for ri := range runs {
		keys := make([]string, rng.Intn(12))
		for i := range keys {
			keys[i] = mergeKeyPool[rng.Intn(len(mergeKeyPool))]
		}
		runs[ri] = sortedRunOf(keys, ri)
	}
	return runs
}

// sortedRunOf sorts keys and encodes them as run ri of a merge, each value
// naming the run and the key's position in it (every fourth empty).
func sortedRunOf(keys []string, ri int) run {
	sort.Strings(keys)
	var r run
	for i, k := range keys {
		var v []byte
		if i%4 != 3 {
			v = []byte(fmt.Sprintf("r%d#%d", ri, i))
		}
		r = AppendKV(r, []byte(k), v)
	}
	return r
}

type mergeGroup struct {
	key  string
	vals []string
}

func collectGroups(dst *[]mergeGroup) func([]byte, [][]byte) {
	return func(k []byte, vs [][]byte) {
		g := mergeGroup{key: string(k)}
		for _, v := range vs {
			g.vals = append(g.vals, string(v))
		}
		*dst = append(*dst, g)
	}
}

// checkMergeAgainstModel fails t unless rt.mergeRuns(runs) is byte-equal to
// the linear-scan model's merge, the streaming group loop sees what grouping
// the model's merged run saw, and neither writes to runs.
func checkMergeAgainstModel(t *testing.T, rt *Runtime, runs []run) {
	t.Helper()
	before := slices.Clone(runs)
	want := modelMergeRuns(slices.Clone(runs))
	got, lone := rt.mergeRuns(runs)
	if !bytes.Equal(got, want) {
		t.Fatalf("%d runs: merged run differs from the model\n got  %q\n want %q\n runs %q", len(runs), got, want, runs)
	}
	var wantGroups, gotGroups []mergeGroup
	modelGroupRun(want, collectGroups(&wantGroups))
	newMerger(runs).groups(collectGroups(&gotGroups))
	if !reflect.DeepEqual(gotGroups, wantGroups) {
		t.Fatalf("%d runs: streamed groups differ from the model\n got  %q\n want %q", len(runs), gotGroups, wantGroups)
	}
	for i := range runs {
		if !bytes.Equal(runs[i], before[i]) || (len(runs[i]) > 0 && &runs[i][0] != &before[i][0]) {
			t.Fatalf("%d runs: merging rewrote runs[%d]", len(runs), i)
		}
	}
	if lone < 0 {
		rt.runs.put(got) // the next merge overwrites it
	} else if &got[0] != &runs[lone][0] {
		t.Fatalf("%d runs: the lone run came back as a copy", len(runs))
	}
}

// TestMergerMatchesLinearScanModel: over random runs — short keys, keys tied
// in their prefixes, keys differing only by trailing 0x00, empty keys and
// values, duplicates across runs, \xff… keys whose prefix is the exhausted
// runs' — at every fan-in from 0 to 70, so tournaments of every shape, not
// only powers of two, the merger agrees with the linear-scan model (so lower
// run index first on ties) and leaves the runs as they were. Each merged
// array goes back, so only a merge larger than every earlier one makes an
// array: the rest are fitted from the free list.
func TestMergerMatchesLinearScanModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rt := new(Runtime)
	arrays := map[*byte]bool{}
	rt.runs.onPut = func(r run) bool {
		arrays[&r[:1][0]] = true
		return true
	}
	largest, records := 0, 0
	check := func(runs []run) {
		total, nonEmpty := 0, 0
		for _, r := range runs {
			if len(r) > 0 {
				total, nonEmpty = total+len(r), nonEmpty+1
			}
		}
		if nonEmpty > 1 && total > largest {
			largest, records = total, records+1
		}
		checkMergeAgainstModel(t, rt, runs)
	}
	for iter := 0; iter < 2000; iter++ {
		check(randomRuns(rng, rng.Intn(10)))
	}
	for fan := 1; fan <= 70; fan++ {
		for iter := 0; iter < 20; iter++ {
			check(randomRuns(rng, fan))
		}
	}
	// Live \xff… keys outlast every other run, in the first run, the last,
	// and one in the middle of an odd tournament.
	ff := []string{"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	for _, at := range []int{0, 3, 6} {
		runs := make([]run, 7)
		for ri := range runs {
			keys := []string{"a", "b"}
			if ri == at {
				keys = append(keys, ff...)
			}
			runs[ri] = sortedRunOf(keys, ri)
		}
		check(runs)
	}
	if len(arrays) != records || len(rt.runs.free) != records {
		t.Errorf("%d merge arrays made, %d free after sequential merges; want one per record size, %d", len(arrays), len(rt.runs.free), records)
	}
}

// FuzzMergeRuns: any runs the fuzzer can spell merge as the linear-scan
// model merges them. data is a sequence of keys, each a length byte (mod 12)
// and that many bytes, dealt round-robin to fan runs.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte("\x01a\x02a\x00\x01b\x00"), uint8(2))
	f.Add([]byte("\x08\xff\xff\xff\xff\xff\xff\xff\xff\x01a\x09\xff\xff\xff\xff\xff\xff\xff\xff\xff"), uint8(3))
	f.Add([]byte("\x09prefix__a\x08prefix__\x09prefix__\x00\x03abc\x00\x02ab"), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, fan uint8) {
		keys := make([][]string, int(fan)%70+1)
		for i := 0; len(data) > 0; i++ {
			n := min(int(data[0])%12, len(data)-1)
			keys[i%len(keys)] = append(keys[i%len(keys)], string(data[1:1+n]))
			data = data[1+n:]
		}
		runs := make([]run, len(keys))
		for ri, ks := range keys {
			runs[ri] = sortedRunOf(ks, ri)
		}
		checkMergeAgainstModel(t, new(Runtime), runs)
	})
}

// sortKVEntries sorts free-standing entries as a spill sorts its buffer's.
func sortKVEntries(ents []kvEnt, arena []byte) {
	(&sortBuf{arena: arena, ents: ents}).sortKVEntries(new(radixWork))
}

// TestSortKVEntriesPrefixCollisions: keys the zero-padded prefix cannot
// tell apart still sort by their full bytes, and equal keys by emission.
func TestSortKVEntriesPrefixCollisions(t *testing.T) {
	ms := &mapState{rt: &Runtime{cfg: Config{SortBufBytes: 1 << 20}}}
	for i := 0; i < 3; i++ {
		for j := len(mergeKeyPool) - 1; j >= 0; j-- {
			ms.add(nil, j%2, []byte(mergeKeyPool[j]), []byte(strconv.Itoa(i)))
		}
	}
	sortKVEntries(ms.ents, ms.arena)
	for i := 1; i < len(ms.ents); i++ {
		a, b := ms.ents[i-1], ms.ents[i]
		c := bytes.Compare(a.key(ms.arena), b.key(ms.arena))
		if a.part > b.part || (a.part == b.part && (c > 0 || (c == 0 && a.koff > b.koff))) {
			t.Fatalf("entry %d (%d, %q, %q) sorts after entry %d (%d, %q, %q)",
				i-1, a.part, a.key(ms.arena), a.val(ms.arena), i, b.part, b.key(ms.arena), b.val(ms.arena))
		}
	}
	for _, e := range ms.ents {
		if want := AppendKV(nil, e.key(ms.arena), e.val(ms.arena)); !bytes.Equal(e.rec(ms.arena), want) {
			t.Fatalf("rec = %q, want %q", e.rec(ms.arena), want)
		}
	}
}

// sortInput buffers the pairs FuzzSortKVEntries' encoding spells: each is one
// header byte (two bits of partition p, two of shift s, four of key length),
// sent to partition p<<8s | p so that every byte of part can vary, and key
// bytes folded onto a four-letter alphabet, so ties in the prefix, in the
// whole key, and keys differing by trailing zeros are all common.
func sortInput(data []byte) *mapState {
	ms := &mapState{rt: &Runtime{cfg: Config{SortBufBytes: 1 << 20}}}
	for len(data) > 0 {
		p, s, klen := int(data[0]>>6), 8*int(data[0]>>4&3), int(data[0]&15)
		data = data[1:]
		if klen > len(data) {
			klen = len(data)
		}
		key := make([]byte, klen)
		for i, b := range data[:klen] {
			key[i] = "\x00ab\xff"[b&3]
		}
		data = data[klen:]
		ms.add(nil, p<<s|p, key, key[:klen/2])
	}
	return ms
}

// sortShapes are the inputs the radix sort treats differently, as functions
// from a pair count to sortInput's encoding; "a" is letter 1, "b" letter 2.
var sortShapes = []struct {
	name  string
	input func(n int) []byte
}{
	// One (part, prefix) run of identical short keys: stability alone orders it.
	{"every key equal", func(n int) []byte { return bytes.Repeat([]byte("\x04abab"), n) }},
	// The same with keys past the prefix: the comparator's koff tiebreak must.
	{"every long key equal", func(n int) []byte { return bytes.Repeat([]byte("\x0baaaaaaaabab"), n) }},
	// No radix pass runs; every order is the comparator's.
	{"prefixes equal, tails differ", func(n int) []byte {
		rng := rand.New(rand.NewSource(22))
		var out []byte
		for i := 0; i < n; i++ {
			tail := rng.Intn(8)
			out = append(append(out, byte(8+tail)), "aaaaaaaa"...)
			for j := 0; j < tail; j++ {
				out = append(out, byte(rng.Intn(4)))
			}
		}
		return out
	}},
	// Equal prefixes, klen ≤ 8, but not one klen: the keys differ.
	{"trailing zeros", func(n int) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, []string{"\x03a\x00\x00", "\x01a", "\x02a\x00", "\x42a\x00", "\x41a", "\x43a\x00\x00"}[i*5%6]...)
		}
		return out
	}},
	// Runs that mix a key exactly as long as the prefix with extensions of it.
	{"eight bytes beside nine", func(n int) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, []string{"\x09abababab\x00", "\x08abababab", "\x09ababababa", "\x08abababaa"}[i*3%4]...)
		}
		return out
	}},
	// Random keys of every length in one partition, then over partitions
	// that differ in each of part's four bytes.
	{"one partition", func(n int) []byte { return randomSortInput(n, 0x0f) }},
	{"wide partitions", func(n int) []byte { return randomSortInput(n, 0xff) }},
}

func randomSortInput(n int, headerMask byte) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	var out []byte
	for i := 0; i < n; i++ {
		h := byte(rng.Intn(256)) & headerMask
		out = append(out, h)
		for j := 0; j < int(h&15); j++ {
			out = append(out, byte(rng.Intn(4)))
		}
	}
	return out
}

// FuzzSortKVEntries is differential: the radix sort with the comparator at
// its leaves must give the permutation sort.SliceStable gives on (part, full
// key) over the same arena-backed entries in emission order.
func FuzzSortKVEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04abcd\x04abcd\x05abcd\x00\x44abcd\x00"))
	f.Add([]byte("\x09aaaaaaaab\x09aaaaaaaaa\x08aaaaaaaa\x0aaaaaaaaa\x00\x00"))
	f.Add(bytes.Repeat([]byte{0x01, 0x00, 0x02, 0x00, 0x00, 0x00}, 9))
	for _, shape := range sortShapes {
		f.Add(shape.input(200))
	}
	for _, n := range []int{radixMinEntries - 1, radixMinEntries, radixMinEntries + 1} {
		f.Add(randomSortInput(n, 0xff))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			data = data[:16<<10] // at most 24 buffered bytes an input byte: no spill
		}
		ms := sortInput(data)
		want := slices.Clone(ms.ents)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].part != want[j].part {
				return want[i].part < want[j].part
			}
			return bytes.Compare(want[i].key(ms.arena), want[j].key(ms.arena)) < 0
		})
		ms.sortKVEntries(&ms.rt.sortWork)
		if !slices.Equal(ms.ents, want) {
			t.Fatalf("sortKVEntries disagrees with the stable sort on (part, key)\n got  %v\n want %v\n arena %q", ms.ents, want, ms.arena)
		}
	})
}

// TestSortKVEntriesShapes: at a spill's size, on each shape and on either
// side of the cut-off, the radix sort gives the comparator's total order.
func TestSortKVEntriesShapes(t *testing.T) {
	for _, shape := range sortShapes {
		for _, n := range []int{radixMinEntries - 1, radixMinEntries, radixMinEntries + 1, 5000} {
			ms := sortInput(shape.input(n))
			if len(ms.ents) != n {
				t.Fatalf("%s: %d pairs buffered, want %d", shape.name, len(ms.ents), n)
			}
			want := slices.Clone(ms.ents)
			slices.SortFunc(want, ms.compare)
			ms.sortKVEntries(&ms.rt.sortWork)
			if !slices.Equal(ms.ents, want) {
				t.Errorf("%s, n = %d: the radix sort and the comparator disagree", shape.name, n)
			}
		}
	}
}

func TestSortBufferMustFitIndexOffsets(t *testing.T) {
	rig := newRig(t, nil)
	cfg := rig.rt.cfg
	cfg.SortBufBytes = 1 << 32
	if _, err := New(rig.env, rig.cl, rig.fs, cfg); err == nil {
		t.Error("New accepted a 4 GiB sort buffer, which uint32 arena offsets cannot address")
	}
	cfg.SortBufBytes = 1<<32 - 1
	if _, err := New(rig.env, rig.cl, rig.fs, cfg); err != nil {
		t.Errorf("New rejected the largest addressable sort buffer: %v", err)
	}
}

// A zero attempt budget is an error, not a default, and New keeps the
// configuration it was given.
func TestNewRejectsZeroTaskAttempts(t *testing.T) {
	rig := newRig(t, nil)
	cfg := rig.rt.cfg
	cfg.MaxTaskAttempts = 0
	if _, err := New(rig.env, rig.cl, rig.fs, cfg); err == nil {
		t.Error("New accepted a zero MaxTaskAttempts")
	}
	if rt, err := New(rig.env, rig.cl, rig.fs, rig.rt.cfg); err != nil {
		t.Errorf("New rejected the rig's own configuration: %v", err)
	} else if rt.cfg != rig.rt.cfg {
		t.Errorf("New changed the configuration it was given:\n got %+v\nwant %+v", rt.cfg, rig.rt.cfg)
	}
}

func TestKVSerializationRoundTrip(t *testing.T) {
	f := func(k, v []byte) bool {
		data := AppendKV(nil, k, v)
		k2, v2, rest := NextKV(data)
		return bytes.Equal(k, k2) && bytes.Equal(v, v2) && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupRunGroupsEqualKeys(t *testing.T) {
	var r run
	r = AppendKV(r, []byte("a"), []byte("1"))
	r = AppendKV(r, []byte("a"), []byte("2"))
	r = AppendKV(r, []byte("b"), []byte("3"))
	var groups []string
	newMerger([]run{r}).groups(func(k []byte, vs [][]byte) {
		groups = append(groups, fmt.Sprintf("%s:%d", k, len(vs)))
	})
	if len(groups) != 2 || groups[0] != "a:2" || groups[1] != "b:1" {
		t.Errorf("groups = %v", groups)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (*Result, map[string][]string) {
		rig := newRig(t, nil)
		parts, _ := textParts()
		rig.loadLines("/in", parts)
		res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
		return res, rig.readOutput(t, "/out")
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.End != r2.End {
		t.Errorf("job end times differ: %v vs %v", r1.End, r2.End)
	}
	if len(o1) != len(o2) {
		t.Errorf("outputs differ in size")
	}
}

// Speculative execution: with one crippled disk making its node's map
// tasks straggle, backup attempts must fire, win and keep the output
// correct.
func TestSpeculativeExecutionRescuesStraggler(t *testing.T) {
	// Big enough that a 30x-degraded node's tasks dominate the tail by far
	// more than the scheduler's polling interval.
	bigParts := func() []string {
		base, _ := textParts()
		out := make([]string, len(base))
		for i, p := range base {
			var sb strings.Builder
			for sb.Len() < 120<<10 {
				sb.WriteString(p)
			}
			out[i] = sb.String()
		}
		return out
	}
	rigSpec := newRig(t, nil)
	// Cripple every disk of slave 0: map attempts reading their split from
	// it crawl.
	for _, v := range rigSpec.cl.Slaves[0].Vols {
		v.Disk().P.SlowFactor = 30
	}
	rigSpec.loadLines("/in", bigParts())
	withSpec := rigSpec.runJob(t, wordCountJob(rigSpec.inputs("/in"), "/out"))
	if withSpec.SpeculativeAttempts == 0 {
		t.Fatal("no speculative attempts despite a crippled node")
	}
	if withSpec.SpeculativeWins == 0 {
		t.Error("speculative attempts never won")
	}
	// Output must be exactly once per task regardless of duplicate attempts:
	// map-in and reduce-out record conservation plus distinct keys.
	if withSpec.ReduceInputRecords != withSpec.MapOutputRecords {
		t.Errorf("record conservation broke under speculation: %d != %d",
			withSpec.ReduceInputRecords, withSpec.MapOutputRecords)
	}
	got := rigSpec.readOutput(t, "/out")
	if len(got) != 8 { // the 8 distinct words of textParts
		t.Errorf("distinct words = %d, want 8", len(got))
	}
	// Abandoned attempts must not leak intermediate files.
	for _, s := range rigSpec.cl.Slaves {
		for _, v := range s.MRVols {
			if files := v.List(); len(files) != 0 {
				t.Errorf("%s leaked files after speculation: %v", s.Name, files)
			}
		}
	}
}

// Delay scheduling at the pickMap level: a node with no local split is told
// to wait while fresh tasks remain, a local node claims its split at once,
// and the waiting node only steals remotely once its locality budget
// (allowRemote) unlocks.
func TestPickMapDelaySchedulingOrder(t *testing.T) {
	rig := newRig(t, nil)
	js := &jobState{
		env: rig.env,
		cfg: &rig.rt.cfg,
		splits: []split{
			{file: "/a", hosts: []string{"slave-00"}},
			{file: "/b", hosts: []string{"slave-01"}},
		},
		taken:     make([]bool, 2),
		completed: make([]bool, 2),
		startedAt: make([]time.Duration, 2),
		attempts:  make([]int, 2),
		mapsLeft:  2,
		totalMaps: 2,
	}
	if idx, remain := js.pickMap("slave-03", false); idx != -1 || !remain {
		t.Fatalf("non-local node got (%d, %v), want (-1, true): delay scheduling must hold it back", idx, remain)
	}
	if idx, _ := js.pickMap("slave-01", false); idx != 1 {
		t.Fatalf("local node claimed %d, want its own split 1", idx)
	}
	if idx, _ := js.pickMap("slave-03", true); idx != 0 {
		t.Fatalf("remote steal claimed %d, want the leftover split 0", idx)
	}
	// Everything is claimed but still running: idle slots must linger for
	// possible speculation rather than exit.
	if idx, remain := js.pickMap("slave-00", true); idx != -1 || !remain {
		t.Fatalf("with maps in flight got (%d, %v), want (-1, true)", idx, remain)
	}
	js.mapsDone = 2
	if _, remain := js.pickMap("slave-00", true); remain {
		t.Fatal("remain=true after every map completed")
	}
}

// Delay scheduling end to end: with the input written at replication 1
// every split is local to one node, so the other slaves' slots must exhaust
// their locality retries and then run remote attempts — and the attempt
// accounting must balance.
func TestDelaySchedulingStealsRemotely(t *testing.T) {
	rig := newRig(t, nil)
	// Enough long maps that the holder's two slots cannot drain the queue
	// before the other slaves' locality budgets run out.
	parts, _ := textParts()
	holder := rig.cl.Slaves[0].Name
	rig.env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			var sb strings.Builder
			for sb.Len() < 120<<10 {
				sb.WriteString(parts[i%len(parts)])
			}
			w := rig.fs.CreateWith(fmt.Sprintf("/skew/part-%d", i), holder, 1)
			if err := w.Write(p, []byte(sb.String())); err != nil {
				t.Error(err)
			}
			if err := w.Close(p); err != nil {
				t.Error(err)
			}
		}
	})
	rig.env.Run(0)
	for _, path := range rig.inputs("/skew") {
		locs, err := rig.fs.BlockLocations(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range locs {
			if len(l) != 1 || l[0] != holder {
				t.Fatalf("%s has replicas on %v, want %s alone", path, l, holder)
			}
		}
	}
	res := rig.runJob(t, wordCountJob(rig.inputs("/skew"), "/skewout"))
	if out := rig.readOutput(t, "/skewout"); len(out) != 8 { // the 8 distinct words of textParts
		t.Errorf("distinct words = %d, want 8", len(out))
	}
	if res.ReduceInputRecords != res.MapOutputRecords {
		t.Errorf("record conservation: map out %d, reduce in %d", res.MapOutputRecords, res.ReduceInputRecords)
	}
	if res.RemoteMaps == 0 {
		t.Error("no remote map attempts although one node holds every replica")
	}
	if res.LocalMaps == 0 {
		t.Error("the data-holding node ran no local attempts")
	}
	if got := res.LocalMaps + res.RemoteMaps; got != res.MapTasks+int(res.SpeculativeAttempts) {
		t.Errorf("attempt accounting: local %d + remote %d = %d, want tasks %d + speculative %d",
			res.LocalMaps, res.RemoteMaps, got, res.MapTasks, res.SpeculativeAttempts)
	}
}

// A disk going fail-slow mid-run (the slow-disk fault knob) must create
// stragglers that speculation rescues, with attempt counters that balance.
func TestMidRunFailSlowDiskTriggersSpeculation(t *testing.T) {
	rig := newRig(t, nil)
	bigParts := func() []string {
		base, _ := textParts()
		out := make([]string, len(base))
		for i, p := range base {
			var sb strings.Builder
			for sb.Len() < 120<<10 {
				sb.WriteString(p)
			}
			out[i] = sb.String()
		}
		return out
	}
	rig.loadLines("/in", bigParts())
	// Degrade every disk of slave 0 shortly after the job starts, as the
	// injector's slow-disk event does — not before, so early attempts are
	// scheduled against a healthy-looking node.
	rig.env.After(100*time.Microsecond, func() {
		for _, v := range rig.cl.Slaves[0].Vols {
			v.Disk().SetSlowFactor(30)
		}
	})
	res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
	if res.SpeculativeAttempts == 0 {
		t.Fatal("no speculative attempts despite a mid-run fail-slow node")
	}
	if res.SpeculativeWins == 0 {
		t.Error("speculative attempts never won against a 30x-degraded node")
	}
	if got := res.LocalMaps + res.RemoteMaps; got != res.MapTasks+int(res.SpeculativeAttempts) {
		t.Errorf("attempt accounting: local %d + remote %d = %d, want tasks %d + speculative %d",
			res.LocalMaps, res.RemoteMaps, got, res.MapTasks, res.SpeculativeAttempts)
	}
	if res.ReduceInputRecords != res.MapOutputRecords {
		t.Errorf("record conservation broke under speculation: %d != %d",
			res.ReduceInputRecords, res.MapOutputRecords)
	}
}

// TestSpillKeepsEarlierPartitionsWithIdentityCodec: with compression off
// compress.Identity hands the very array a partition was serialized into to
// Append, which keeps it. Every partition of every spill, read back after
// the last one, must still hold its own pairs: each is an array of its own
// that its segment records as the file's, and a combiner's output is copied
// into one out of the buffer the attempt's next partition combines into.
func TestSpillKeepsEarlierPartitionsWithIdentityCodec(t *testing.T) {
	passThrough := ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
		for _, v := range vals {
			emit(k, v)
		}
	})
	for _, comb := range []Reducer{nil, passThrough} {
		r := newRig(t, nil)
		if _, ok := r.rt.cfg.Codec.(compress.Identity); !ok {
			t.Fatalf("default codec is %T, want compress.Identity", r.rt.cfg.Codec)
		}
		const nparts, nspills = 3, 2
		var want [nspills][nparts]run
		ms := &mapState{rt: r.rt, job: &Job{NumReduces: nparts, Combiner: comb}, node: r.cl.Slaves[0], spillBase: "m_test"}
		r.env.Go("map", func(p *sim.Proc) {
			var scratch *byte
			owned := map[*byte]bool{}
			for s := range want {
				// Keys are emitted in sorted order so the expected runs can be
				// built alongside; partition 0 is the smallest, so later ones
				// would overwrite all of a shared array it was serialized into.
				for i := 0; i < 300; i++ {
					part := i % nparts
					for rep := 0; rep <= part; rep++ {
						k, v := []byte(fmt.Sprintf("key-%04d-%d", i, rep)), []byte(fmt.Sprintf("value-%d-of-partition-%d-spill-%d", i, part, s))
						want[s][part] = AppendKV(want[s][part], k, v)
						ms.add(p, part, k, v)
					}
				}
				ms.spill(p, false)
				for part, seg := range ms.spills[s].segs {
					if len(seg.own) == 0 || owned[&seg.own[0]] {
						t.Fatalf("spill %d partition %d: the file holds no array of its own", s, part)
					}
					owned[&seg.own[0]] = true
				}
				switch {
				case comb == nil && ms.scratch != nil:
					t.Errorf("spill %d: a run sized from the index went through a combiner buffer", s)
				case comb != nil && scratch == nil:
					scratch = &ms.scratch[:1][0]
				case comb != nil && &ms.scratch[:1][0] != scratch:
					t.Errorf("spill %d: the combiner's buffer was not recycled", s)
				}
			}
			if scratch != nil && owned[scratch] {
				t.Error("a spill file holds the combiner's buffer")
			}
			if len(ms.spills) != nspills {
				t.Fatalf("got %d spills, want %d", len(ms.spills), nspills)
			}
			for s, sf := range ms.spills {
				for part, seg := range sf.segs {
					if seg.clen == 0 {
						t.Fatalf("spill %d partition %d is empty", s, part)
					}
					if got := sf.file.ReadAt(p, seg.off, seg.clen); !bytes.Equal(got, want[s][part]) {
						t.Errorf("combiner %v: spill %d partition %d read back differs from what was serialized", comb != nil, s, part)
					}
				}
			}
		})
		r.env.Run(0)
	}
}

// TestAppendRunStoresWithoutCopying: what can become of a run on its way
// into a file. The codec's own result is stored and the caller keeps its
// buffer; with compression off the file holds the caller's array itself,
// full or with spare capacity, and appendRun hands back that array for the
// caller to record. Each row appends two runs, the second through the first
// one's buffer when it is still the caller's, and reads the first back after
// the second.
func TestAppendRunStoresWithoutCopying(t *testing.T) {
	fill := func(buf run, tag string) run {
		for i := 0; i < 200; i++ {
			buf = AppendKV(buf, []byte(fmt.Sprintf("key-%04d", i)), []byte(tag))
		}
		return buf
	}
	size := len(fill(nil, "first"))
	for _, c := range []struct {
		name   string
		codec  compress.Codec
		slack  int
		stored string // what the file holds: the codec's "enc" or the caller's "raw"
	}{
		{"the codec's own result", compress.NewLZ(), 0, "enc"},
		{"a full identity buffer", compress.Identity{}, 0, "raw"},
		{"a slack identity buffer", compress.Identity{}, 64, "raw"},
	} {
		r := newRig(t, nil)
		r.env.Go("spill", func(p *sim.Proc) {
			f := r.cl.Slaves[0].NextMRVol().Create("runs")
			buf := fill(make(run, 0, size+c.slack), "first")
			want := slices.Clone(buf)
			enc := c.codec.Compress(buf)
			held := appendRun(p, f, buf, enc)
			if (held != nil) != (c.stored == "raw") || (held != nil && &held[0] != &buf[0]) {
				t.Fatalf("%s: appendRun handed back %v, want the caller's array: %v", c.name, held != nil, c.stored == "raw")
			}
			view := f.ReadAt(p, 0, int64(len(enc)))
			stored := "copy"
			switch &view[0] {
			case &buf[0]: // with compress.Identity this is enc too
				stored = "raw"
			case &enc[0]:
				stored = "enc"
			}
			if stored != c.stored {
				t.Errorf("%s: the file holds %s, want %s", c.name, stored, c.stored)
			}
			if held != nil {
				buf = make(run, 0, size) // as the callers do: the old array is the file's now
			}
			buf = fill(buf[:0], "other")
			appendRun(p, f, buf, c.codec.Compress(buf))
			if got := c.codec.Decompress(f.ReadAt(p, 0, int64(len(enc)))); !bytes.Equal(got, want) {
				t.Errorf("%s: the second run overwrote the first one's stored bytes", c.name)
			}
		})
		r.env.Run(0)
	}
}

// TestSecondMapAttemptAllocatesNoScratch: the arrays an attempt serializes
// into come from the runtime's free list, so of two identical attempts on
// one Runtime only the first makes one for its first partition — the second
// serializes into an array the first gave back. With a real codec, that is:
// a lone spill is the map output, which nothing reads back, so it keeps no
// run and each partition's array goes back once it is compressed; an
// attempt that spills twice keeps each run it encoded for its merge (see
// keptRun), and they go back after it.
func TestSecondMapAttemptAllocatesNoScratch(t *testing.T) {
	const nparts = 3
	for _, nspills := range []int{1, 2} {
		r := newRig(t, func(c *Config) { c.Codec = compress.NewLZ() })
		var put []*byte // every array given back, in order
		r.rt.runs.onPut = func(a run) bool {
			put = append(put, &a[:1][0])
			return true
		}
		// attempt returns the array its first partition was serialized into
		// and the arrays it gave back.
		attempt := func(p *sim.Proc, base string) (first *byte, back []*byte) {
			put = nil
			ms := &mapState{rt: r.rt, job: &Job{NumReduces: nparts}, node: r.cl.Slaves[0], spillBase: base}
			for s := range nspills {
				if s > 0 {
					ms.spill(p, false)
				}
				for i := 0; i < 300; i++ {
					ms.add(p, i%nparts, []byte(fmt.Sprintf("key-%04d-%d", i, s)), []byte("value"))
				}
			}
			if out := ms.finish(p, 0); out == nil || len(ms.spills) != nspills || len(put) == 0 {
				t.Fatalf("%s: %d spills, %d arrays given back; want %d finished and arrays to recycle", base, len(ms.spills), len(put), nspills)
			}
			var kept []*byte
			for _, sf := range ms.spills {
				for _, sg := range sf.segs {
					if sg.kept.raw != nil {
						kept = append(kept, &sg.kept.raw[0])
					}
				}
			}
			switch {
			case nspills == 1 && len(kept) == 0:
				first = put[0]
			case nspills == 1 || len(kept) != nspills*nparts:
				t.Fatalf("%s: %d of %d segments kept their run", base, len(kept), nspills*nparts)
			case slices.ContainsFunc(kept, func(k *byte) bool { return !slices.Contains(put, k) }):
				t.Errorf("%s: a kept run did not go back", base)
			default:
				first = kept[0]
			}
			ms.recycle()
			return first, slices.Clone(put)
		}
		r.env.Go("map", func(p *sim.Proc) {
			_, back := attempt(p, "m_first")
			if first, _ := attempt(p, "m_second"); !slices.Contains(back, first) {
				t.Errorf("%d spill(s): the second attempt serialized into an array of its own", nspills)
			}
		})
		r.env.Run(0)
	}
}

// countingCodec is a codec that counts its Decompress calls.
type countingCodec struct {
	compress.Codec
	decodes *int
}

func (c countingCodec) Decompress(enc []byte) []byte {
	*c.decodes++
	return c.Codec.Decompress(enc)
}

// TestMultiSpillMergeDecodesNothingItKept: an attempt that spills twice
// merges runs it encoded itself, so it calls Decompress for none of them,
// and its map output holds the bytes the same attempt stores when every
// segment is decoded (its kept runs dropped before finish). A segment that
// reads back as a copy — Corrupt twice over, the same bytes in a new
// array — is decoded, and only that one.
func TestMultiSpillMergeDecodesNothingItKept(t *testing.T) {
	const nparts, nspills = 4, 2
	attempt := func(prep func(ms *mapState)) (stored [][]byte, decodes int) {
		r := newRig(t, func(c *Config) { c.Codec = countingCodec{compress.NewLZ(), &decodes} })
		r.env.Go("map", func(p *sim.Proc) {
			ms := &mapState{rt: r.rt, job: &Job{NumReduces: nparts}, node: r.cl.Slaves[0], spillBase: "m"}
			rng := rand.New(rand.NewSource(1))
			for range nspills {
				for i := 0; i < 400; i++ {
					ms.add(p, i%nparts, []byte(fmt.Sprintf("key-%05d", rng.Intn(1000))), []byte(fmt.Sprintf("value-%d", i)))
				}
				ms.spill(p, false)
			}
			prep(ms)
			out := ms.finish(p, 0)
			if out == nil || len(ms.spills) != nspills {
				t.Fatalf("%d spills, want a finished merge of %d", len(ms.spills), nspills)
			}
			for _, seg := range out.segs {
				stored = append(stored, out.file.ReadAt(p, seg.off, seg.clen))
			}
		})
		r.env.Run(0)
		return stored, decodes
	}
	want, all := attempt(func(ms *mapState) {
		for _, sf := range ms.spills {
			for i := range sf.segs {
				sf.segs[i].kept = keptRun{}
			}
		}
	})
	if all != nparts*nspills {
		t.Fatalf("the decode-everything reference decoded %d segments, want %d", all, nparts*nspills)
	}
	got, decodes := attempt(func(*mapState) {})
	if decodes != 0 || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("kept runs: %d decodes (want 0), map output equal to the reference: %v", decodes, slices.EqualFunc(got, want, bytes.Equal))
	}
	got, decodes = attempt(func(ms *mapState) {
		sf, seg := ms.spills[1], ms.spills[1].segs[2]
		for range 2 {
			sf.vol.Corrupt(sf.file.Name(), seg.off, int(seg.clen))
		}
	})
	if decodes != 1 || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("a copied segment: %d decodes (want 1), map output equal to the reference: %v", decodes, slices.EqualFunc(got, want, bytes.Equal))
	}
}

// TestKeptRunOnlyForTheStoredSlice: decodeRun takes the kept run only for a
// read-back that is the stored slice itself. A flipped copy Corrupt made, a
// range gathered from two segments and a view cut short are decoded.
func TestKeptRunOnlyForTheStoredSlice(t *testing.T) {
	r := newRig(t, nil)
	lz := compress.NewLZ()
	raw := run(AppendKV(nil, []byte("key"), bytes.Repeat([]byte("value"), 40)))
	enc := lz.Compress(raw)
	r.env.Go("read", func(p *sim.Proc) {
		vol := r.cl.Slaves[0].NextMRVol()
		whole, halves := vol.Create("whole"), vol.Create("halves")
		whole.Append(p, enc)
		halves.Append(p, enc[:len(enc)/2])
		halves.Append(p, enc[len(enc)/2:])
		k := keptRun{enc, raw}
		readBack := func(f *localfs.File, n int64) []byte { return f.ReadAt(p, 0, n) }
		for _, c := range []struct {
			name    string
			got     func() []byte
			decoded bool
		}{
			{"the stored slice", func() []byte { return readBack(whole, int64(len(enc))) }, false},
			{"a gathered copy", func() []byte { return readBack(halves, int64(len(enc))) }, true},
			{"a truncated view", func() []byte { return readBack(whole, int64(len(enc)-1)) }, true},
			{"a corrupted copy", func() []byte {
				vol.Corrupt("whole", 1, 1)
				return readBack(whole, int64(len(enc)))
			}, true},
		} {
			decodes := 0
			got := c.got()
			func() {
				defer func() { recover() }() // a cut or flipped stream need not decode
				decodeRun(countingCodec{lz, &decodes}, got, k)
			}()
			if (decodes == 1) != c.decoded {
				t.Errorf("%s: decoded %v, want %v", c.name, decodes == 1, c.decoded)
			}
		}
	})
	r.env.Run(0)
}

// TestSpillingTasksDecodeOnlyShuffledSegments: with maps that spill several
// times and reducers that spill runs to disk, a job calls Decompress exactly
// as often as with buffers large enough for neither — once per fetched map
// output segment, the only runs a task did not encode itself — and writes
// the same output.
func TestSpillingTasksDecodeOnlyShuffledSegments(t *testing.T) {
	job := func(tiny bool) (*Result, map[string][]string, int) {
		decodes := 0
		rig := newRig(t, func(c *Config) {
			c.Codec = countingCodec{compress.NewLZ(), &decodes}
			if tiny {
				c.SortBufBytes, c.ShuffleBufBytes = 4<<10, 2<<10
			}
		})
		parts, _ := textParts()
		rig.loadLines("/in", parts)
		res := rig.runJob(t, wordCountJob(rig.inputs("/in"), "/out"))
		return res, rig.readOutput(t, "/out"), decodes
	}
	roomy, want, fetched := job(false)
	if roomy.Spills != int64(roomy.MapTasks) || roomy.ReduceSpills != 0 {
		t.Fatalf("roomy buffers: %d spills of %d maps, %d reduce spills; want one each and none", roomy.Spills, roomy.MapTasks, roomy.ReduceSpills)
	}
	tight, got, decodes := job(true)
	if tight.Spills <= int64(tight.MapTasks) || tight.ReduceSpills == 0 {
		t.Fatalf("tiny buffers: %d spills of %d maps, %d reduce spills; want merges on both sides", tight.Spills, tight.MapTasks, tight.ReduceSpills)
	}
	if decodes != fetched {
		t.Errorf("%d Decompress calls with spilling tasks, want the %d of the shuffle alone", decodes, fetched)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("spilling tasks wrote a different output")
	}
}

// TestSecondSpillAllocatesNoSortTmp: the radix sort's other side belongs to
// the Runtime, so an attempt's second spill and the next attempt's first
// sort through the array the very first spill made.
func TestSecondSpillAllocatesNoSortTmp(t *testing.T) {
	r := newRig(t, nil)
	var tmp *kvEnt
	spill := func(p *sim.Proc, ms *mapState, what string) {
		for i := 0; i < 300; i++ {
			ms.add(p, i%3, []byte(fmt.Sprintf("key-%04d", i*7%300)), []byte("value"))
		}
		ms.spill(p, false)
		w := &r.rt.sortWork
		if cap(w.tmp) < 300 {
			t.Fatalf("%s: sorted 300 entries with a %d-entry tmp, want the radix sort to have run", what, cap(w.tmp))
		}
		if tmp == nil {
			tmp = &w.tmp[:1][0]
		} else if &w.tmp[:1][0] != tmp {
			t.Errorf("%s: sorted through a tmp of its own", what)
		}
	}
	r.env.Go("map", func(p *sim.Proc) {
		first := &mapState{rt: r.rt, job: &Job{NumReduces: 3}, node: r.cl.Slaves[0], spillBase: "m_first"}
		spill(p, first, "first spill")
		spill(p, first, "second spill")
		first.recycle()
		second := &mapState{rt: r.rt, job: &Job{NumReduces: 3}, node: r.cl.Slaves[0], spillBase: "m_second"}
		spill(p, second, "next attempt's first spill")
	})
	r.env.Run(0)
}

// TestPartitionerOutOfRangePanics: a partition outside [0, NumReduces) is a
// pair no spill would ever write. The map task must stop there, naming the
// job, the key and both numbers, rather than finish with fewer records than
// were emitted. (The mapper recovers so the test can read the message; the
// pair that panicked was not buffered, the rest of the job is untouched.)
func TestPartitionerOutOfRangePanics(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		rig := newRig(t, nil)
		parts, want := textParts()
		rig.loadLines("/in", parts)
		job := wordCountJob(rig.inputs("/in"), "/out")
		job.Partitioner = func(k []byte, n int) int {
			if string(k) == "hdfs" {
				return bad
			}
			return HashPartition(k, n)
		}
		var msgs []string
		job.Mapper = MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			for _, w := range bytes.Fields(rec) {
				func() {
					defer func() {
						if r := recover(); r != nil {
							msgs = append(msgs, fmt.Sprint(r))
						}
					}()
					emit(w, []byte("1"))
				}()
			}
		})
		res := rig.runJob(t, job)
		wantMsg := fmt.Sprintf(`mapred: job wordcount: partitioner sent key "hdfs" to partition %d of 3 reduces`, bad)
		if len(msgs) != want["hdfs"] || msgs[0] != wantMsg {
			t.Errorf("partition %d: %d panics, want %d, the first %q, want %q (%d of %d map output records reached a reducer)",
				bad, len(msgs), want["hdfs"], slices.Compact(msgs), wantMsg, res.ReduceInputRecords, res.MapOutputRecords)
		}
	}
}

// sortJob is TeraSort in miniature: 100-byte records, the first ten bytes
// the key, one reduce, no combiner. probe runs at the first Reduce call —
// after the shuffle and the final merge's read-back, before any output.
func sortJob(probe func()) *Job {
	return &Job{
		Name:   "sort",
		Input:  []string{"/sort/in"},
		Output: "/sort/out",
		Format: FixedFormat{Size: 100},
		Mapper: MapperFunc(func(rec []byte, emit func(k, v []byte)) { emit(rec[:10], rec[10:]) }),
		Reducer: ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
			if probe != nil {
				probe()
				probe = nil
			}
			for _, v := range vals {
				emit(k, v)
			}
		}),
		NumReduces:        1,
		OutputReplication: 1,
	}
}

// TestShuffledSegmentsAreNotResident: by the time a healthy reducer reduces,
// every map output segment has been fetched exactly once and merged into the
// reducer's own runs, and the map output files have let the bytes go: the
// heap holds the input and one copy of the intermediate data, not two. The
// recovery-aware fetch re-reads, so it keeps them — and must still produce
// the same output after a dropped fetch.
func TestShuffledSegmentsAreNotResident(t *testing.T) {
	// 128 maps of one 128 KiB block, each a single spill, into half-MiB reduce
	// runs: four sort arenas, the merge pool and page bookkeeping come to some
	// 5 MiB, against 8 MiB between input + intermediate and the limit, and
	// 8 MiB more between the limit and what the parent of ReadOnce kept.
	const inputBytes, scale = 16 << 20, 512
	tune := func(c *Config) { c.MapSlots, c.ShuffleBufBytes = 1, 512<<10 }
	load := func(r *testRig) {
		data := make([]byte, inputBytes)
		rand.New(rand.NewSource(1)).Read(data)
		r.fs.Load("/sort/in", r.cl.Slaves[0].Name, data)
	}
	output := func(r *testRig) (out []byte) {
		r.env.Go("reader", func(p *sim.Proc) {
			rd, err := r.fs.Open("/sort/out/part-r-00000", r.cl.Slaves[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			if out, err = rd.ReadAt(p, 0, rd.Size()); err != nil {
				t.Fatal(err)
			}
		})
		r.env.Run(0)
		return out
	}

	var base, atReduce runtime.MemStats
	healthy := newRigAt(t, scale, tune)
	runtime.GC()
	runtime.ReadMemStats(&base)
	load(healthy)
	res := healthy.runJob(t, sortJob(func() {
		runtime.GC()
		runtime.ReadMemStats(&atReduce)
	}))
	if res.ReduceSpills < 4 || res.CompressedMapOutput < inputBytes {
		t.Fatalf("%d reduce spills of %d intermediate bytes: the job does not exercise the shuffle", res.ReduceSpills, res.CompressedMapOutput)
	}
	resident := int64(atReduce.HeapAlloc) - int64(base.HeapAlloc)
	limit := res.MapInputBytes + res.CompressedMapOutput*3/2
	t.Logf("%.1f MiB resident at the first Reduce; input %.1f, intermediate %.1f, limit %.1f",
		float64(resident)/(1<<20), float64(res.MapInputBytes)/(1<<20), float64(res.CompressedMapOutput)/(1<<20), float64(limit)/(1<<20))
	if resident > limit {
		t.Errorf("%d bytes resident at the first Reduce, limit %d: fetched map outputs are still held next to the reducer's runs", resident, limit)
	}
	want := output(healthy)
	if int64(len(want)) != res.CompressedMapOutput {
		t.Fatalf("output is %d bytes, want the %d shuffled", len(want), res.CompressedMapOutput)
	}

	faulty := newRigAt(t, scale, tune)
	load(faulty)
	faulty.rt.EnableFaults()
	drops := 0
	faulty.rt.SetFetchFault(func(time.Duration) bool {
		drops++
		return drops == 3
	})
	if res := faulty.runJob(t, sortJob(nil)); res.FetchRetries != 1 {
		t.Errorf("%d fetch retries, want the one dropped fetch retried", res.FetchRetries)
	}
	if !bytes.Equal(output(faulty), want) {
		t.Error("output after a dropped and retried fetch differs from the healthy run's")
	}
}

// MapsDone is when the last map attempt completed, not when the last idle
// map worker gave up its locality wait. The probe parks on the condition
// every completion broadcasts, so it wakes at each completion's own instant.
func TestMapsDoneIsLastMapCompletion(t *testing.T) {
	rig := masterRigMR(t, journal.Config{}) // the master layer publishes the job state in rt.jobs
	parts, _ := textParts()
	for len(parts) < 20 { // 20 maps over 4 × 2 slots: three waves
		parts = append(parts, parts[len(parts)-4])
	}
	rig.loadLines("/in", parts)
	job := wordCountJob(rig.inputs("/in"), "/out")
	var lastCompletion time.Duration
	rig.env.Go("probe", func(p *sim.Proc) {
		p.SetDaemon(true)
		for rig.rt.jobs[job.Name] == nil {
			p.Sleep(time.Microsecond)
		}
		js := rig.rt.jobs[job.Name]
		for js.mapsDone < js.totalMaps {
			js.outputsCond.Wait(p)
		}
		lastCompletion = p.Now()
	})
	res := rig.runJobStopMaster(t, job)
	if res.Counters.MapTasks != len(parts) {
		t.Fatalf("%d map tasks, want %d", res.Counters.MapTasks, len(parts))
	}
	if lastCompletion == 0 || res.MapsDone != lastCompletion {
		t.Errorf("MapsDone = %v, last map attempt completed at %v", res.MapsDone, lastCompletion)
	}
	if res.MapsDone <= res.Start || res.MapsDone >= res.End {
		t.Errorf("MapsDone %v outside (Start %v, End %v): want a map phase and a reduce tail", res.MapsDone, res.Start, res.End)
	}
}

// TestMapChunkReadsAllocateNothing: a map reads a generated TeraSort input
// straight into its framer's pending buffer, through the file's reader of
// the part. Once pending has grown and the read has its place in the part,
// a chunk read allocates nothing: not per chunk, not where a chunk crosses
// a block's end, not where a record does.
func TestMapChunkReadsAllocateNothing(t *testing.T) {
	env := sim.New(1)
	cl, err := cluster.New(env, cluster.DefaultHardware(1024), 4)
	if err != nil {
		t.Fatal(err)
	}
	fs := hdfs.New(env, hdfs.Config{BlockSize: 256 << 10}, cl.Net, cl.Slaves)
	tab := datagen.TeraGen{Seed: 1}.Table(0, 3*256<<10+5_000)
	node, size, chunk := cl.Slaves[0].Name, tab.Size(), int64(16<<10)
	fs.LoadSource("/in", node, tab.Reader(), size)
	env.Go("map", func(p *sim.Proc) {
		rd, err := fs.Open("/in", node)
		if err != nil {
			t.Fatal(err)
		}
		fr := newFramer(recordIter{format: FixedFormat{Size: datagen.RecordSize}, splitLen: size, fileSize: size})
		var records int64
		read := func(from, to int64) {
			for pos := from; pos < to; pos += chunk {
				if fr.pending, err = rd.ReadAppend(p, fr.pending, pos, min(chunk, to-pos)); err != nil {
					t.Fatal(err)
				}
				fr.frame(func([]byte) { records++ })
			}
		}
		read(0, size)  // grows pending, fills the cache
		read(0, chunk) // a read from the start: the part's reader takes a new place
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(chunk, size)
		runtime.ReadMemStats(&after)
		chunks := (size - 1) / chunk
		if n := after.Mallocs - before.Mallocs; records != 2*size/datagen.RecordSize || n != 0 {
			t.Errorf("%d chunks framed %d records (want %d) in %d allocations; want none", chunks, records, 2*size/datagen.RecordSize, n)
		}
	})
	env.Run(0)
}
