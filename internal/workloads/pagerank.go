package workloads

import (
	"bytes"
	"fmt"
	"strconv"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// PageRank is the link-analysis workload: one adjacency-construction job
// over the edge list, then a fixed number of power-iteration jobs that each
// scan the previous iteration's graph state, distribute rank along edges,
// and apply the damping factor. Parsing and rank arithmetic give it a high
// CPU cost per byte (CPU-bound in Table 3), and the iteration state it
// rewrites each pass is far smaller than TeraSort's shuffle, so its
// intermediate-disk pressure is modest — as in the paper's Table 7.
type PageRank struct{}

// pagerankIterations is the number of power iterations after the build job.
const pagerankIterations = 3

// damping is the standard teleport factor. It is typed, so 1-damping is
// the float64 difference, not the exact 0.15.
const damping float64 = 0.85

// NewPageRank returns the workload with the conventional parameters.
func NewPageRank() *PageRank { return &PageRank{} }

// key names the workload's HDFS directories.
func (*PageRank) key() string { return "PR" }

// PaperInputBytes implements Workload. Table 3's volume column is garbled
// in the source text; DESIGN.md records the 64 GB assumption (the Google
// web graph expanded by BigDataBench's generator).
func (*PageRank) PaperInputBytes() int64 { return 64 << 30 }

// Prepare implements Workload.
func (pr *PageRank) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, total int64, seed int64) {
	gen := datagen.GraphGen{Seed: seed}
	loadParts(fs, cl, in, inputDir(pr.key()), total, gen)
}

// Vertex state value format: "rank|dst1,dst2,..." — rank as decimal float,
// destinations comma-separated (possibly empty for dangling vertices).
// encodeStateInto writes into dst[:0] so per-record callers can reuse one
// backing array.
func encodeStateInto(dst []byte, rank float64, adj []byte) []byte {
	out := strconv.AppendFloat(dst[:0], rank, 'g', 10, 64)
	out = append(out, '|')
	return append(out, adj...)
}

func decodeState(v []byte) (rank float64, adj []byte) {
	i := bytes.IndexByte(v, '|')
	if i < 0 {
		panic(fmt.Sprintf("pagerank: bad state %q", v))
	}
	r, err := strconv.ParseFloat(bstr(v[:i]), 64)
	if err != nil {
		panic(fmt.Sprintf("pagerank: bad rank in %q", v))
	}
	return r, v[i+1:]
}

// countDests returns the out-degree encoded in an adjacency blob.
func countDests(adj []byte) int {
	if len(adj) == 0 {
		return 0
	}
	return bytes.Count(adj, []byte{','}) + 1
}

// prCosts prices the text parsing and rank arithmetic of the iterations.
func prCosts() mapred.CostModel {
	return mapred.CostModel{
		MapNsPerRecord:    700,
		MapNsPerByte:      35,
		ReduceNsPerRecord: 400,
		ReduceNsPerByte:   5,
	}
}

// Run implements Workload.
func (pr *PageRank) Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error) {
	inputs := fs.List(inputDir(pr.key()) + "/")
	if len(inputs) == 0 {
		return nil, fmt.Errorf("pagerank: not prepared")
	}
	var results []*mapred.Result

	// Job 1: adjacency construction from the raw edge list.
	stateDir := fmt.Sprintf("%s-state0", outputDir(pr.key()))
	cleanOutputs(fs, stateDir)
	build := &mapred.Job{
		Name:   "pagerank-build",
		Input:  inputs,
		Output: stateDir,
		Format: mapred.LineFormat{},
		Mapper: mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			i := bytes.IndexByte(rec, '\t')
			if i <= 0 || i+1 >= len(rec) {
				return
			}
			emit(rec[:i], rec[i+1:])
		}),
		Reducer: func() mapred.Reducer {
			// Per-job scratch; emit copies before any task switch can reuse it.
			var adj, state []byte
			return mapred.ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
				adj = adj[:0]
				for i, v := range vals {
					if i > 0 {
						adj = append(adj, ',')
					}
					adj = append(adj, v...)
				}
				state = encodeStateInto(state, 1.0, adj)
				emit(k, state)
			})
		}(),
		NumReduces: defaultReduces(cl),
		Costs:      prCosts(),
	}
	res, err := rt.Run(p, build)
	if err != nil {
		return nil, err
	}
	results = append(results, res)

	// Power iterations over the vertex state.
	for iter := 1; iter <= pagerankIterations; iter++ {
		prevDir := stateDir
		stateDir = fmt.Sprintf("%s-state%d", outputDir(pr.key()), iter)
		cleanOutputs(fs, stateDir)
		job := &mapred.Job{
			Name:   fmt.Sprintf("pagerank-iter%d", iter),
			Input:  fs.List(prevDir + "/part-r-"),
			Output: stateDir,
			Format: mapred.KVFormat{},
			Mapper: func() mapred.Mapper {
				// Per-job scratch. A map-side emit can spill (and so switch
				// tasks) before returning, which would let another task of
				// this job clobber the shared buffers — so each one is rebuilt
				// from call-local values right before the emit that copies it.
				var aBuf, cBuf []byte
				return mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
					node, state := mapred.SplitKV(rec)
					rank, adj := decodeState(state)
					// Preserve the graph structure.
					aBuf = append(aBuf[:0], 'A')
					aBuf = append(aBuf, adj...)
					emit(node, aBuf)
					deg := countDests(adj)
					if deg == 0 {
						return
					}
					contrib := rank / float64(deg)
					start := 0
					for i := 0; i <= len(adj); i++ {
						if i == len(adj) || adj[i] == ',' {
							cBuf = append(cBuf[:0], 'C')
							cBuf = strconv.AppendFloat(cBuf, contrib, 'g', 10, 64)
							emit(adj[start:i], cBuf)
							start = i + 1
						}
					}
				})
			}(),
			Reducer: func() mapred.Reducer {
				var state []byte
				return mapred.ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
					var adj []byte
					sum := 0.0
					for _, v := range vals {
						switch v[0] {
						case 'A':
							adj = v[1:]
						case 'C':
							c, err := strconv.ParseFloat(bstr(v[1:]), 64)
							if err != nil {
								panic(fmt.Sprintf("pagerank: bad contribution %q", v))
							}
							sum += c
						}
					}
					state = encodeStateInto(state, (1-damping)+damping*sum, adj)
					emit(k, state)
				})
			}(),
			NumReduces: defaultReduces(cl),
			Costs:      prCosts(),
		}
		res, err := rt.Run(p, job)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// ReadRanks returns the final rank of every vertex after Run, for
// verification and the examples.
func (pr *PageRank) ReadRanks(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) map[string]float64 {
	dir := fmt.Sprintf("%s-state%d", outputDir(pr.key()), pagerankIterations)
	out := map[string]float64{}
	for _, path := range fs.List(dir + "/part-r-") {
		rd, err := fs.Open(path, cl.Master.Name)
		if err != nil {
			panic(err)
		}
		data, err := rd.ReadAt(p, 0, rd.Size())
		if err != nil {
			panic(err)
		}
		for len(data) > 0 {
			k, v, rest := mapred.NextKV(data)
			data = rest
			rank, _ := decodeState(v)
			out[string(k)] = rank
		}
	}
	return out
}
