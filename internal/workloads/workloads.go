// Package workloads implements the paper's four BigDataBench workloads as
// real MapReduce programs over the simulated cluster:
//
//	TS  — TeraSort: total-order sort of 100-byte records (I/O-bound).
//	AGG — Hive Aggregation: group-by revenue aggregation of an e-commerce
//	      order table (CPU-bound).
//	KM  — K-means: iterative centroid refinement (CPU-bound) followed by a
//	      clustering/labelling pass (I/O-bound), as in Table 3.
//	PR  — PageRank: adjacency construction plus power iterations
//	      (CPU-bound).
//
// Each workload carries a CostModel calibrated so its bottleneck class
// matches the paper's Table 3 on the simulated hardware: with 8 map slots
// and 12 cores per node, a map-side CPU cost above ~26 ns/byte starves the
// three HDFS disks (CPU-bound), while costs of a few ns/byte leave the
// disks saturated (I/O-bound).
package workloads

import (
	"fmt"
	"sync"
	"unsafe"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// bstr views b as a string without copying, for strconv parse calls on the
// per-record hot path (string(b) would allocate per record). The callee must
// not retain the string; strconv parsers only do so inside returned errors,
// which the callers treat as malformed-input dead ends.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Workload is one benchmark: input preparation plus a job sequence. Each is
// named once, by core.Workload.
type Workload interface {
	// PaperInputBytes is the unscaled input volume attributed to the
	// workload (Table 3; where the table is ambiguous DESIGN.md records
	// the assumption).
	PaperInputBytes() int64
	// Prepare generates the scaled input, taking its parts from in, and
	// loads it into HDFS instantly (setup is excluded from measurement, as
	// in the paper).
	Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, bytes int64, seed int64)
	// Run executes the workload's job sequence and returns per-job results.
	Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error)
}

// inputDir and outputDir name the HDFS layout per workload.
func inputDir(key string) string  { return "/bench/" + key + "/in" }
func outputDir(key string) string { return "/bench/" + key + "/out" }

// loadParts spreads generated parts across the slaves: one part per slave,
// sized to total/nslaves, mirroring a parallel generation job whose outputs
// are local-first.
func loadParts(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, dir string, total int64, gen Generator) {
	per := max(total/int64(len(cl.Slaves)), 1)
	for i, data := range in.Parts(gen, len(cl.Slaves), per) {
		fs.Load(fmt.Sprintf("%s/part-%05d", dir, i), cl.Slaves[i].Name, data)
	}
}

// Generator is a datagen generator, whose value fixes every byte it makes.
type Generator interface {
	Part(part int, size int64) []byte
}

// Inputs supplies parts 0..n-1 of gen, each of size bytes (a test wraps it).
type Inputs interface {
	Parts(gen Generator, n int, size int64) [][]byte
}

// PartTable is Inputs generating each distinct part (generator value, index,
// size) once and handing all its callers the same bytes: a sweep's cells of
// a workload share one. hdfs.Load installs the slice uncopied and nothing
// stored is written again, so testbeds share it as a block's replicas do
// (localfs's "who copies, who keeps"). It is safe for concurrent use.
type PartTable struct {
	mu    sync.Mutex
	parts map[partKey]*part
}

type partKey struct {
	gen  Generator
	i    int
	size int64
}

// part is a table entry; the caller that claims it sets data, then closes ready.
type part struct {
	ready chan struct{}
	data  []byte
}

// NewPartTable returns an empty table.
func NewPartTable() *PartTable { return &PartTable{parts: map[partKey]*part{}} }

// Parts generates each part nobody has claimed and waits last for those
// other callers claimed, so callers that arrive together split the work.
func (t *PartTable) Parts(gen Generator, n int, size int64) [][]byte {
	ps := make([]*part, n)
	for i := range ps {
		k := partKey{gen, i, size}
		t.mu.Lock()
		p, claimed := t.parts[k]
		if !claimed {
			p = &part{ready: make(chan struct{})}
			t.parts[k] = p
		}
		t.mu.Unlock()
		if ps[i] = p; !claimed {
			p.data = k.gen.Part(k.i, k.size)
			close(p.ready)
		}
	}
	out := make([][]byte, n)
	for i, p := range ps {
		<-p.ready
		out[i] = p.data
	}
	return out
}

// defaultReduces sizes a job's reduce count: Hadoop's rule of thumb of a
// small multiple of the cluster's reduce-slot capacity. Held constant
// across slot configurations so output layout is comparable.
func defaultReduces(cl *cluster.Cluster) int { return 2 * len(cl.Slaves) }

// cleanOutputs removes a directory's part files between runs.
func cleanOutputs(fs *hdfs.FS, dir string) {
	for _, p := range fs.List(dir) {
		fs.Delete(p)
	}
}
