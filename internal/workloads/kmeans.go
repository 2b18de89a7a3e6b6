package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// KMeans is the Mahout-style clustering workload: a fixed number of
// centroid-refinement iterations (each a full scan of the input assigning
// every point to its nearest center and reducing partial sums to new
// centers — CPU-bound, tiny output) followed by a final clustering pass
// that labels and writes every point (I/O-bound, output ≈ input), matching
// the two-phase bottleneck classification of Table 3.
type KMeans struct{}

// numCenters is K-means' K, the number of centers; kmeansIterations the
// refinement passes before the labelling pass.
const (
	numCenters       = 16
	kmeansIterations = 3
)

// NewKMeans returns the workload with BigDataBench-like defaults.
func NewKMeans() *KMeans { return &KMeans{} }

// key names the workload's HDFS directories.
func (*KMeans) key() string { return "KM" }

// PaperInputBytes implements Workload. Table 3's volume column is garbled
// in the source text; DESIGN.md records the 256 GB assumption.
func (*KMeans) PaperInputBytes() int64 { return 256 << 30 }

// Prepare implements Workload.
func (km *KMeans) Prepare(fs *hdfs.FS, cl *cluster.Cluster, in Inputs, total int64, seed int64) {
	gen := datagen.PointGen{Seed: seed}
	loadParts(fs, cl, in, inputDir(km.key()), total, gen)
}

// parsePointInto decodes a sep-separated coordinate line into dst[:0], so
// per-record callers can reuse one backing array across millions of
// records. It returns the (possibly regrown) slice.
func parsePointInto(dst []float64, line []byte, sep byte, dims int) ([]float64, bool) {
	dst = dst[:0]
	for {
		v, n, ok := parseField(line, sep)
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if n == len(line) {
			return dst, len(dst) == dims
		}
		line = line[n+1:]
	}
}

// pow10 are the divisors of parseField's exact path; each is an exact
// float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseField parses the coordinate at the head of b, up to sep or the end,
// to the float64 strconv.ParseFloat returns for it, and reports the field's
// length. NaN and ±Inf, which ParseFloat accepts by name, are rejected:
// every comparison in nearest is false against one, so a single such record
// would poison a centroid for the rest of the run.
//
// One pass reads [-]digits[.digits] with at most 15 digits, which is every
// coordinate PointGen writes. The digits read as an integer are below 2^53
// and the power of ten is at most 1e15, so both are exact float64s and their
// IEEE quotient is the correctly rounded value — the computation strconv's
// own atof64exact does. Any other spelling (exponents, hex, 16+ digits, a
// bare sign or point) is delimited afresh and handed to strconv.
func parseField(b []byte, sep byte) (float64, int, bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-' && sep != '-'
	if neg {
		i = 1
	}
	var mant uint64
	start, frac := i, 0
	for ; i < len(b) && b[i] != sep && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	if i < len(b) && b[i] == '.' && sep != '.' {
		i++
		for ; i < len(b) && b[i] != sep && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			frac++
		}
		start++ // the point is not a digit
	}
	if digits := i - start; digits > 0 && digits <= 15 && (i == len(b) || b[i] == sep) {
		v := float64(mant) / pow10[frac]
		if neg {
			v = -v
		}
		return v, i, true
	}
	n := bytes.IndexByte(b, sep)
	if n < 0 {
		n = len(b)
	}
	v, err := strconv.ParseFloat(bstr(b[:n]), 64)
	return v, n, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// nearest returns the index of the closest center (squared Euclidean), the
// lowest on a tie. Four centers share each pass over pt; each distance is
// summed in dimension order as the one-at-a-time loop sums it, so every
// distance, and so every choice, is the same bit for bit.
func nearest(pt []float64, centers [][]float64) int {
	best, bestD := 0, 0.0
	i := 0
	for ; i+4 <= len(centers); i += 4 {
		c0, c1, c2, c3 := centers[i][:len(pt)], centers[i+1][:len(pt)], centers[i+2][:len(pt)], centers[i+3][:len(pt)]
		var d0, d1, d2, d3 float64
		for j, x := range pt {
			e0, e1, e2, e3 := x-c0[j], x-c1[j], x-c2[j], x-c3[j]
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		if i == 0 || d0 < bestD {
			best, bestD = i, d0
		}
		if d1 < bestD {
			best, bestD = i+1, d1
		}
		if d2 < bestD {
			best, bestD = i+2, d2
		}
		if d3 < bestD {
			best, bestD = i+3, d3
		}
	}
	for ; i < len(centers); i++ {
		c, d := centers[i][:len(pt)], 0.0
		for j, x := range pt {
			e := x - c[j]
			d += e * e
		}
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// A partial is the value iteration jobs pass from map through combine to
// reduce: a point count and a coordinate sum in 8 little-endian bytes each
// (uint64, then Float64bits per dimension) — the role Mahout gives its
// ClusterObservations Writable. Text exists only at the HDFS boundary: the
// input lines and the reducer's "count;sum;sum;…" output.
func appendPartial(dst []byte, count uint64, sum []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], count)
	for _, v := range sum {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// partialSum folds the partials of one key. One instance serves a whole job:
// its buffers are only live between the start of a Reduce call and the emit
// that ends it, and every emit path copies the value out before the
// simulation can switch to another task.
type partialSum struct {
	count uint64
	sum   []float64
	enc   []byte
}

// fold sums vals into count and sum. Every value must be the size of the
// group's first, and that a whole number of 8-byte words with the count
// among them; anything else is a framing bug upstream, not input.
func (a *partialSum) fold(vals [][]byte) {
	size := len(vals[0])
	a.count, a.sum = 0, a.sum[:0]
	for i := 8; i+8 <= size; i += 8 { // one per coordinate word after the count
		a.sum = append(a.sum, 0)
	}
	for _, v := range vals {
		if len(v) != size || size < 8 || size%8 != 0 {
			panic(fmt.Sprintf("kmeans: bad partial %q", v))
		}
		a.count += binary.LittleEndian.Uint64(v)
		for i := range a.sum {
			a.sum[i] += math.Float64frombits(binary.LittleEndian.Uint64(v[8+8*i:]))
		}
	}
}

// sumCombiner merges a spill's partials for a centroid into one partial.
type sumCombiner struct{ partialSum }

// Reduce implements mapred.Reducer.
func (c *sumCombiner) Reduce(k []byte, vals [][]byte, emit func(k, v []byte)) {
	c.fold(vals)
	c.enc = appendPartial(c.enc, c.count, c.sum)
	emit(k, c.enc)
}

// sumReducer merges a centroid's partials and writes the total as text; the
// division to a centroid happens driver-side, in readCenters.
type sumReducer struct{ partialSum }

// Reduce implements mapred.Reducer.
func (r *sumReducer) Reduce(k []byte, vals [][]byte, emit func(k, v []byte)) {
	r.fold(vals)
	r.enc = strconv.AppendUint(r.enc[:0], r.count, 10)
	for _, v := range r.sum {
		r.enc = append(r.enc, ';')
		r.enc = strconv.AppendFloat(r.enc, v, 'g', -1, 64)
	}
	emit(k, r.enc)
}

// iterCosts prices one distance evaluation per center per dimension plus
// float parsing — the arithmetic that makes iterations CPU-bound.
func (km *KMeans) iterCosts() mapred.CostModel {
	perRecord := float64(numCenters*datagen.PointDims)*4 + float64(datagen.PointDims)*45 // distances + ParseFloat
	return mapred.CostModel{
		MapNsPerRecord:    perRecord,
		MapNsPerByte:      4,
		ReduceNsPerRecord: 300,
		ReduceNsPerByte:   1,
	}
}

// Run implements Workload: kmeansIterations refinement jobs, then the
// clustering (labelling) job.
func (km *KMeans) Run(p *sim.Proc, rt *mapred.Runtime, fs *hdfs.FS, cl *cluster.Cluster) ([]*mapred.Result, error) {
	inputs := fs.List(inputDir(km.key()) + "/")
	if len(inputs) == 0 {
		return nil, fmt.Errorf("kmeans: not prepared")
	}
	centers, err := km.seedCenters(p, fs, inputs, cl.Master.Name)
	if err != nil {
		return nil, err
	}
	var results []*mapred.Result
	for iter := 0; iter < kmeansIterations; iter++ {
		out := fmt.Sprintf("%s-iter%d", outputDir(km.key()), iter)
		cleanOutputs(fs, out)
		job := km.iterationJob(inputs, out, centers)
		res, err := rt.Run(p, job)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		centers, err = km.readCenters(p, fs, out, cl.Master.Name, centers)
		if err != nil {
			return nil, err
		}
	}
	// Clustering pass: label every point and write it back out.
	out := outputDir(km.key())
	cleanOutputs(fs, out)
	job := &mapred.Job{
		Name:   "kmeans-cluster",
		Input:  inputs,
		Output: out,
		Format: mapred.LineFormat{},
		Mapper: func() mapred.Mapper {
			// Per-job scratch: each buffer is rebuilt immediately before the
			// emit that consumes it, and emit copies before any task switch.
			var pt []float64
			var key []byte
			return mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
				var ok bool
				pt, ok = parsePointInto(pt, rec, ',', datagen.PointDims)
				if !ok {
					return
				}
				c := nearest(pt, centers)
				key = strconv.AppendInt(key[:0], int64(c), 10)
				emit(key, rec)
			})
		}(),
		Reducer: mapred.ReducerFunc(func(k []byte, vals [][]byte, emit func(k, v []byte)) {
			for _, v := range vals {
				emit(k, v)
			}
		}),
		NumReduces: defaultReduces(cl),
		Costs:      km.iterCosts(),
	}
	res, err := rt.Run(p, job)
	if err != nil {
		return nil, err
	}
	return append(results, res), nil
}

// iterationJob builds one refinement pass against fixed centers.
func (km *KMeans) iterationJob(inputs []string, output string, centers [][]float64) *mapred.Job {
	// Per-job scratch, same discipline as the clustering mapper above.
	var pt []float64
	var key, val []byte
	return &mapred.Job{
		Name:   "kmeans-iter",
		Input:  inputs,
		Output: output,
		Format: mapred.LineFormat{},
		Mapper: mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			var ok bool
			pt, ok = parsePointInto(pt, rec, ',', datagen.PointDims)
			if !ok {
				return
			}
			c := nearest(pt, centers)
			key = strconv.AppendInt(key[:0], int64(c), 10)
			val = appendPartial(val, 1, pt)
			emit(key, val)
		}),
		Combiner:   &sumCombiner{},
		Reducer:    &sumReducer{},
		NumReduces: numCenters, // one reducer per centroid is plenty for tiny output
		Costs:      km.iterCosts(),
	}
}

// seedCenters reads the first K parseable points as initial centers (Mahout
// uses a seeding job; a driver-side read keeps the I/O visible but small).
func (km *KMeans) seedCenters(p *sim.Proc, fs *hdfs.FS, inputs []string, client string) ([][]float64, error) {
	rd, err := fs.Open(inputs[0], client)
	if err != nil {
		return nil, err
	}
	data, err := rd.ReadAt(p, 0, int64(numCenters*datagen.PointDims*24+1024))
	if err != nil {
		return nil, err
	}
	var centers [][]float64
	datagen.Lines(data, func(line []byte) {
		if len(centers) >= numCenters {
			return
		}
		if pt, ok := parsePointInto(nil, line, ',', datagen.PointDims); ok {
			centers = append(centers, pt)
		}
	})
	if len(centers) < numCenters {
		return nil, fmt.Errorf("kmeans: only %d seed centers in first read", len(centers))
	}
	return centers, nil
}

// readCenters parses an iteration's reduce output into the next center set,
// keeping the previous center where a cluster went empty.
func (km *KMeans) readCenters(p *sim.Proc, fs *hdfs.FS, dir, client string, prev [][]float64) ([][]float64, error) {
	next := make([][]float64, len(prev))
	copy(next, prev)
	for _, path := range fs.List(dir + "/part-r-") {
		rd, err := fs.Open(path, client)
		if err != nil {
			return nil, err
		}
		data, err := rd.ReadAt(p, 0, rd.Size())
		if err != nil {
			return nil, err
		}
		for len(data) > 0 {
			k, v, rest := mapred.NextKV(data)
			data = rest
			idx, err := strconv.Atoi(string(k))
			if err != nil || idx < 0 || idx >= len(next) {
				return nil, fmt.Errorf("kmeans: bad center key %q", k)
			}
			head, coords, _ := bytes.Cut(v, []byte{';'})
			count, err := strconv.ParseUint(bstr(head), 10, 64)
			c, ok := parsePointInto(nil, coords, ';', datagen.PointDims)
			if err != nil || !ok {
				return nil, fmt.Errorf("kmeans: bad center value %q", v)
			}
			if count == 0 {
				continue
			}
			for i := range c {
				c[i] /= float64(count)
			}
			next[idx] = c
		}
	}
	return next, nil
}
