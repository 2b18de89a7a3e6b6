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
	// Prepare generates the scaled input and loads it into HDFS instantly
	// (setup is excluded from measurement, as in the paper).
	Prepare(fs *hdfs.FS, cl *cluster.Cluster, bytes int64, seed int64)
	// Run executes the workload's job sequence and returns per-job results.
	Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error)
}

// inputDir and outputDir name the HDFS layout per workload.
func inputDir(key string) string  { return "/bench/" + key + "/in" }
func outputDir(key string) string { return "/bench/" + key + "/out" }

// loadParts spreads generated parts across the slaves: one part per slave,
// sized to total/nslaves, mirroring a parallel generation job whose outputs
// are local-first.
func loadParts(fs *hdfs.FS, cl *cluster.Cluster, dir string, total int64, gen func(part int, size int64) []byte) {
	n := len(cl.Slaves)
	per := total / int64(n)
	if per < 1 {
		per = 1
	}
	for i, s := range cl.Slaves {
		fs.Load(fmt.Sprintf("%s/part-%05d", dir, i), s.Name, gen(i, per))
	}
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
