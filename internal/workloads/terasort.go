package workloads

import (
	"bytes"
	"fmt"
	"sort"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// TeraSort is Jim Gray's sort benchmark as shipped with Hadoop/BigDataBench:
// sample the key space, build a total-order partitioner, then sort via the
// framework's shuffle with identity map and reduce functions. Its map-side
// CPU cost is tiny, so the job is bounded by disk and network — the paper's
// I/O-bound classification, and the workload with the heaviest intermediate
// (MapReduce-disk) traffic because map output equals the full input.
type TeraSort struct{}

// NewTeraSort returns the workload.
func NewTeraSort() *TeraSort { return &TeraSort{} }

// key names the workload's HDFS directories.
func (*TeraSort) key() string { return "TS" }

// PaperInputBytes implements Workload: Table 3 gives TeraSort 1 TB.
func (*TeraSort) PaperInputBytes() int64 { return 1 << 40 }

// Prepare implements Workload.
func (t *TeraSort) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, total int64, seed int64) {
	gen := datagen.TeraGen{Seed: seed}
	loadParts(fs, cl, in, inputDir(t.key()), total, gen)
}

// sampleSplitters reads a prefix of each input file and derives r-1 key cut
// points, exactly as TeraSort's input sampler does (the sampling I/O is
// part of the measured run, as in the real program).
func sampleSplitters(p *sim.Proc, fs *hdfs.FS, inputs []string, client string, r int) ([][]byte, error) {
	const perFile = 100 * datagen.RecordSize
	var keys [][]byte
	for _, path := range inputs {
		rd, err := fs.Open(path, client)
		if err != nil {
			return nil, err
		}
		data, err := rd.ReadAt(p, 0, perFile)
		if err != nil {
			return nil, err
		}
		for off := 0; off+datagen.RecordSize <= len(data); off += datagen.RecordSize {
			keys = append(keys, append([]byte(nil), datagen.Key(data, off)...))
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("terasort: no sample keys from %d inputs", len(inputs))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	splitters := make([][]byte, 0, r-1)
	for i := 1; i < r; i++ {
		splitters = append(splitters, keys[i*len(keys)/r])
	}
	return splitters, nil
}

// totalOrderPartition returns a partitioner routing keys by binary search
// over the splitters, so partition i holds keys <= all of partition i+1 —
// concatenated reduce outputs are globally sorted. A probe compares full
// keys only when their mapred.KeyPrefix values (the splitters' precomputed) tie.
func totalOrderPartition(splitters [][]byte) mapred.Partitioner {
	prefixes := make([]uint64, len(splitters))
	for i, s := range splitters {
		prefixes[i] = mapred.KeyPrefix(s)
	}
	return func(key []byte, n int) int {
		p := mapred.KeyPrefix(key)
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := (lo + hi) / 2
			if sp := prefixes[mid]; p < sp || (p == sp && bytes.Compare(key, splitters[mid]) < 0) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return min(lo, n-1)
	}
}

// Run implements Workload.
func (t *TeraSort) Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error) {
	inputs := fs.List(inputDir(t.key()) + "/")
	if len(inputs) == 0 {
		return nil, fmt.Errorf("terasort: not prepared")
	}
	cleanOutputs(fs, outputDir(t.key()))
	r := defaultReduces(cl)
	splitters, err := sampleSplitters(p, fs, inputs, cl.Master.Name, r)
	if err != nil {
		return nil, err
	}
	job := &mapred.Job{
		Name:   "terasort",
		Input:  inputs,
		Output: outputDir(t.key()),
		Format: mapred.FixedFormat{Size: datagen.RecordSize},
		Mapper: mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			emit(rec[:datagen.KeySize], rec[datagen.KeySize:])
		}),
		Reducer: mapred.ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
			for _, v := range vals {
				emit(k, v)
			}
		}),
		Partitioner: totalOrderPartition(splitters),
		NumReduces:  r,
		// The sort benchmark's convention since GraySort: output is written
		// with replication 1 (only the input is triply replicated).
		OutputReplication: 1,
		Costs: mapred.CostModel{
			MapNsPerRecord:    60,
			MapNsPerByte:      0.8,
			ReduceNsPerRecord: 60,
			ReduceNsPerByte:   0.8,
		},
	}
	res, err := rt.Run(p, job)
	if err != nil {
		return nil, err
	}
	return []*mapred.Result{res}, nil
}
