package workloads

import (
	"fmt"
	"strconv"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Aggregation is the paper's Hive Query workload: the OLAP aggregation
// operator (SELECT category, SUM(price*quantity) ... GROUP BY category)
// compiled to a single MapReduce job with a map-side combiner, run over a
// Zipf-skewed e-commerce order table. Hive's deserialization and expression
// evaluation dominate, so the map-side CPU cost is high (CPU-bound in
// Table 3) while output is tiny — which is why the paper finds AGG the most
// HDFS-read-intensive workload (Table 6) with hardly any intermediate I/O.
type Aggregation struct{}

// NewAggregation returns the workload.
func NewAggregation() *Aggregation { return &Aggregation{} }

// key names the workload's HDFS directories.
func (*Aggregation) key() string { return "AGG" }

// PaperInputBytes implements Workload. Table 3's volume column is garbled
// in the source text; DESIGN.md records the 512 GB assumption.
func (*Aggregation) PaperInputBytes() int64 { return 512 << 30 }

// Prepare implements Workload.
func (a *Aggregation) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, total int64, seed int64) {
	gen := datagen.OrderGen{Seed: seed}
	loadParts(fs, cl, in, inputDir(a.key()), total, gen)
}

// aggSummer is both combiner and reducer: it sums revenue values per
// category. The scratch buffer is rebuilt immediately before the emit that
// consumes it, and emit copies the bytes before the simulation can switch
// tasks, so one instance per job side is safe.
type aggSummer struct{ enc []byte }

// Reduce implements mapred.Reducer.
func (a *aggSummer) Reduce(k []byte, vals [][]byte, emit func(k, v []byte)) {
	var sum int64
	for _, v := range vals {
		n, err := strconv.ParseInt(bstr(v), 10, 64)
		if err != nil {
			panic(fmt.Sprintf("aggregation: bad partial %q: %v", v, err))
		}
		sum += n
	}
	a.enc = strconv.AppendInt(a.enc[:0], sum, 10)
	emit(k, a.enc)
}

// Run implements Workload.
func (a *Aggregation) Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error) {
	inputs := fs.List(inputDir(a.key()) + "/")
	if len(inputs) == 0 {
		return nil, fmt.Errorf("aggregation: not prepared")
	}
	cleanOutputs(fs, outputDir(a.key()))
	job := &mapred.Job{
		Name:   "aggregation",
		Input:  inputs,
		Output: outputDir(a.key()),
		Format: mapred.LineFormat{},
		Mapper: func() mapred.Mapper {
			var val []byte // rebuilt right before each emit, which copies it
			return mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
				// Fields: order|user|item|category|price|quantity.
				var fieldStart [7]int
				nf := 1
				for i, b := range rec {
					if b == '|' && nf < 7 {
						fieldStart[nf] = i + 1
						nf++
					}
				}
				if nf < 6 {
					return // malformed line; Hive would null it out
				}
				cat := rec[fieldStart[3] : fieldStart[4]-1]
				price, err1 := strconv.Atoi(bstr(rec[fieldStart[4] : fieldStart[5]-1]))
				qty, err2 := strconv.Atoi(bstr(rec[fieldStart[5]:]))
				if err1 != nil || err2 != nil {
					return
				}
				val = strconv.AppendInt(val[:0], int64(price*qty), 10)
				emit(cat, val)
			})
		}(),
		Combiner:   &aggSummer{},
		Reducer:    &aggSummer{},
		NumReduces: defaultReduces(cl),
		Costs: mapred.CostModel{
			// Hive's SerDe + expression evaluation: heavy per-byte cost is
			// what starves the disks of CPU time and makes AGG CPU-bound —
			// the margin is wide enough that even doubled map slots leave
			// the cores, not the disks, as the bottleneck.
			MapNsPerRecord:    1200,
			MapNsPerByte:      45,
			ReduceNsPerRecord: 150,
			ReduceNsPerByte:   2,
		},
	}
	res, err := rt.Run(p, job)
	if err != nil {
		return nil, err
	}
	return []*mapred.Result{res}, nil
}
