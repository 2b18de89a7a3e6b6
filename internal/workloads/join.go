package workloads

import (
	"fmt"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Join is the paper's other Hive query ("SQL operations, such as join,
// aggregation and select"): a repartition equi-join of the order fact
// table against a user dimension table on user id, emitting
// (user, region, revenue) rows. It is included as an extension workload —
// the paper characterizes only Aggregation of the two — and exercises an
// I/O pattern neither AGG nor TS has: two heterogeneous inputs shuffled
// into the same reduce space, with output between AGG's (tiny) and TS's
// (everything).
type Join struct{}

// dimFraction is the dimension table's share of the input volume.
const dimFraction = 1.0 / 16

// NewJoin returns the workload.
func NewJoin() *Join { return &Join{} }

// key names the workload's HDFS directories.
func (*Join) key() string { return "JOIN" }

// PaperInputBytes implements Workload: sized like Aggregation's table.
func (*Join) PaperInputBytes() int64 { return 512 << 30 }

// Prepare implements Workload: the fact table under in/fact and the
// dimension table under in/dim.
func (j *Join) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, total int64, seed int64) {
	orders := datagen.OrderGen{Seed: seed}
	users := datagen.UserGen{Seed: seed}
	loadParts(fs, cl, in, inputDir(j.key())+"/fact", int64(float64(total)*(1-dimFraction)), orders)
	loadParts(fs, cl, in, inputDir(j.key())+"/dim", int64(float64(total)*dimFraction), users)
}

// tag bytes distinguishing the two sides in the shuffle.
const (
	tagDim  = 'D'
	tagFact = 'F'
)

// Run implements Workload: one repartition-join job.
func (j *Join) Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error) {
	facts := fs.List(inputDir(j.key()) + "/fact/")
	dims := fs.List(inputDir(j.key()) + "/dim/")
	if len(facts) == 0 || len(dims) == 0 {
		return nil, fmt.Errorf("join: not prepared")
	}
	cleanOutputs(fs, outputDir(j.key()))

	// The mapper distinguishes sides by schema: dimension rows have three
	// fields, fact rows six (a Hive multi-input job would use the split's
	// source path; schema sniffing keeps the Job single-mapper). The scratch
	// buffers are rebuilt from call-local values right before each emit,
	// which copies them before the simulation can switch tasks.
	var tagBuf []byte
	mapper := mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
		var pos [5]int // offsets of the first five separators
		sep := 0
		for i, b := range rec {
			if b == '|' {
				if sep < 5 {
					pos[sep] = i
				}
				sep++
			}
		}
		switch sep {
		case 2: // user|name|region
			tagBuf = append(tagBuf[:0], tagDim)
			tagBuf = append(tagBuf, rec[pos[0]+1:]...)
			emit(rec[:pos[0]], tagBuf)
		case 5: // order|user|item|category|price|quantity
			tagBuf = append(tagBuf[:0], tagFact)
			tagBuf = append(tagBuf, rec[pos[3]+1:]...) // price|quantity
			emit(rec[pos[0]+1:pos[1]], tagBuf)
		}
	})
	var rowBuf []byte
	reducer := mapred.ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
		var dim []byte
		for _, v := range vals {
			if v[0] == tagDim {
				dim = v[1:]
				break
			}
		}
		if dim == nil {
			return // no matching user: inner join drops the rows
		}
		for _, v := range vals {
			if v[0] != tagFact {
				continue
			}
			rowBuf = append(rowBuf[:0], dim...)
			rowBuf = append(rowBuf, '|')
			rowBuf = append(rowBuf, v[1:]...)
			emit(k, rowBuf)
		}
	})
	job := &mapred.Job{
		Name:       "hive-join",
		Input:      append(append([]string(nil), facts...), dims...),
		Output:     outputDir(j.key()),
		Format:     mapred.LineFormat{},
		Mapper:     mapper,
		Reducer:    reducer,
		NumReduces: defaultReduces(cl),
		Costs: mapred.CostModel{
			// Hive-grade SerDe costs, as for Aggregation.
			MapNsPerRecord:    1100,
			MapNsPerByte:      40,
			ReduceNsPerRecord: 300,
			ReduceNsPerByte:   4,
		},
	}
	res, err := rt.Run(p, job)
	if err != nil {
		return nil, err
	}
	return []*mapred.Result{res}, nil
}
