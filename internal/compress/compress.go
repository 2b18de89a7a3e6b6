// Package compress provides the intermediate-data codecs for the MapReduce
// runtime. The paper toggles Hadoop's mapred.compress.map.output; here the
// equivalent is choosing between the Identity codec and LZ, a from-scratch
// byte-oriented LZ77 block codec of the Snappy/LZO class the paper's Hadoop
// used (hash-table match finder, literal and copy tags, no entropy stage;
// see lz.go for the format), paired with a virtual-CPU cost model calibrated
// to that class (~250 MB/s compression, ~500 MB/s decompression per 2010s
// core). Ratio and price come from the same algorithm.
//
// Because the codec really compresses the real intermediate bytes, each
// workload's compression ratio emerges from its own data: sorted text
// shrinks differently from aggregation partials or graph adjacency — which
// is exactly why the paper sees per-workload differences in Figure 12.
//
// Deflate (stdlib flate at its fastest level) was the production codec
// through schema 9. It stays as the reference the tests compare LZ against:
// an LZ77 stage plus Huffman coding bounds from above the ratio an LZ77
// stage alone can reach on the same bytes.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
	"time"
)

// Codec compresses byte blocks and prices the CPU time the work costs.
type Codec interface {
	// Name identifies the codec in configs and reports.
	Name() string
	// Compress returns the encoded form of src.
	Compress(src []byte) []byte
	// Decompress reverses Compress. It panics on corrupt input — in the
	// simulation that is a program bug, not an I/O condition.
	Decompress(enc []byte) []byte
	// CompressCost returns virtual CPU time to compress n input bytes.
	CompressCost(n int) time.Duration
	// DecompressCost returns virtual CPU time to decompress to n output bytes.
	DecompressCost(n int) time.Duration
}

// Identity is the no-compression codec (mapred.compress.map.output=false).
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// Compress implements Codec; it returns src unchanged.
func (Identity) Compress(src []byte) []byte { return src }

// Decompress implements Codec; it returns enc unchanged.
func (Identity) Decompress(enc []byte) []byte { return enc }

// CompressCost implements Codec; identity costs nothing.
func (Identity) CompressCost(int) time.Duration { return 0 }

// DecompressCost implements Codec; identity costs nothing.
func (Identity) DecompressCost(int) time.Duration { return 0 }

// Modeled single-core throughput of a 2010s-era fast codec, bytes/second.
const (
	fastCompressBps   = 250 << 20
	fastDecompressBps = 500 << 20
)

// bpsCost is the virtual CPU time n bytes take at bps bytes/second.
func bpsCost(n int, bps int64) time.Duration {
	return time.Duration(float64(n) / float64(bps) * 1e9)
}

// Deflate is a real fast-deflate codec with a Snappy-class cost model.
type Deflate struct {
	// CompressBps and DecompressBps are the modeled single-core codec
	// throughputs in bytes/second.
	CompressBps   int64
	DecompressBps int64
}

// NewDeflate returns the codec with default 2010s-era fast-codec costs.
func NewDeflate() Deflate {
	return Deflate{CompressBps: fastCompressBps, DecompressBps: fastDecompressBps}
}

// Name implements Codec.
func (Deflate) Name() string { return "deflate" }

// Codec state is pooled: a flate writer carries ~600 KiB of match tables
// whose zeroing used to dominate the simulator's allocation profile (one
// NewWriter per spill). Reset makes a recycled writer bit-identical to a
// fresh one, so pooling cannot change any compressed byte. The pools are
// process-global and concurrency-safe, which matters because the suite
// executor compresses from many worker goroutines at once.
var (
	flateWriters = sync.Pool{New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(fmt.Sprintf("compress: flate writer: %v", err))
		}
		return w
	}}
	flateReaders = sync.Pool{New: func() any {
		return flate.NewReader(bytes.NewReader(nil))
	}}
)

// Compress implements Codec using flate.BestSpeed.
func (Deflate) Compress(src []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(src)/2 + 64)
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		panic(fmt.Sprintf("compress: flate write: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("compress: flate close: %v", err))
	}
	flateWriters.Put(w)
	return buf.Bytes()
}

// Decompress implements Codec.
func (Deflate) Decompress(enc []byte) []byte {
	r := flateReaders.Get().(io.ReadCloser)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(enc), nil); err != nil {
		panic(fmt.Sprintf("compress: flate reset: %v", err))
	}
	// Decompressed intermediate data is rarely more than a few times larger
	// than its encoded form; growing up front avoids ReadAll's doubling
	// copies without pinning oversized buffers.
	buf := bytes.NewBuffer(make([]byte, 0, len(enc)*3+512))
	if _, err := buf.ReadFrom(r); err != nil {
		panic(fmt.Sprintf("compress: flate read: %v", err))
	}
	if err := r.Close(); err != nil {
		panic(fmt.Sprintf("compress: flate close: %v", err))
	}
	flateReaders.Put(r)
	return buf.Bytes()
}

// CompressCost implements Codec.
func (c Deflate) CompressCost(n int) time.Duration { return bpsCost(n, c.CompressBps) }

// DecompressCost implements Codec.
func (c Deflate) DecompressCost(n int) time.Duration { return bpsCost(n, c.DecompressBps) }
