// Package mapred implements the MapReduce runtime of the paper's testbed
// (Hadoop 1.0.4): a job tracker with per-node map/reduce task slots, map
// tasks with sort-buffer spills and on-disk merges, a parallel shuffle over
// the cluster network, reduce-side merge, and HDFS output with replication.
//
// The runtime executes real user map and reduce functions over real bytes.
// Its I/O goes through internal/localfs (intermediate data, on the three
// dedicated per-node disks) and internal/hdfs (input/output), so the
// intermediate-vs-HDFS access-pattern contrast the paper measures is an
// emergent property of the same pipeline that produced it on the authors'
// cluster: many concurrently written spill files (small, fragmented,
// re-read by the shuffle) versus large streaming block I/O.
package mapred

import (
	"fmt"
	"time"

	"iochar/internal/compress"
)

// Mapper transforms one input record into zero or more key/value pairs.
// Implementations must not retain the record or emitted slices; the runtime
// copies what it needs.
type Mapper interface {
	Map(record []byte, emit func(key, value []byte))
}

// Reducer folds all values of one key into zero or more output pairs.
type Reducer interface {
	Reduce(key []byte, values [][]byte, emit func(key, value []byte))
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(record []byte, emit func(key, value []byte))

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit func(key, value []byte)) { f(record, emit) }

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key []byte, values [][]byte, emit func(key, value []byte))

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values [][]byte, emit func(key, value []byte)) {
	f(key, values, emit)
}

// Partitioner maps a key to a reduce partition in [0, n).
type Partitioner func(key []byte, n int) int

// HashPartition is the default partitioner (FNV-1a, like Hadoop's hash
// partitioning in spirit).
func HashPartition(key []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	if n <= 1 {
		return 0
	}
	return int(h % uint64(n))
}

// CostModel prices the user code's CPU work in virtual nanoseconds. These
// constants are what make a workload CPU-bound or I/O-bound (the paper's
// Table 3 classification); each workload package calibrates its own.
type CostModel struct {
	MapNsPerRecord    float64
	MapNsPerByte      float64
	ReduceNsPerRecord float64 // per input value
	ReduceNsPerByte   float64 // per input value byte
}

// RecordFormat tells the input reader how to frame records in a split.
type RecordFormat interface {
	// isFormat closes the set at LineFormat, FixedFormat and KVFormat: the
	// reader in format.go frames records by switching on the three.
	isFormat()
}

// LineFormat frames newline-terminated records with Hadoop's
// LineRecordReader convention: a split skips a partial first line (unless
// it starts at offset 0) and reads past its end to finish the last line.
type LineFormat struct{}

func (LineFormat) isFormat() {}

// FixedFormat frames fixed-size records (TeraSort's 100-byte records): a
// split owns the records whose first byte falls inside it.
type FixedFormat struct{ Size int }

func (FixedFormat) isFormat() {}

// KVFormat frames the runtime's own uvarint key/value pairs — the format
// reduce tasks write — so iterative workloads (K-means, PageRank) can chain
// jobs. KV streams carry no sync markers, so files under this format are
// read as whole-file splits (parallelism comes from the file count, i.e.
// the previous job's reduce count, as with Hadoop sequence-file chains).
type KVFormat struct{}

func (KVFormat) isFormat() {}

// SplitKV decodes a KVFormat record into its key and value.
func SplitKV(rec []byte) (key, value []byte) {
	k, v, _ := NextKV(rec)
	return k, v
}

// Job describes one MapReduce job.
type Job struct {
	Name        string
	Input       []string // HDFS paths (files)
	Output      string   // HDFS directory for part-r-* files
	Format      RecordFormat
	Mapper      Mapper
	Reducer     Reducer
	Combiner    Reducer // optional map-side combine
	Partitioner Partitioner
	NumReduces  int
	Costs       CostModel
	// OutputReplication overrides HDFS's default replication for the job's
	// part files (0 = filesystem default). TeraSort conventionally writes
	// its output with replication 1.
	OutputReplication int
}

// Settings the paper holds at Hadoop 1.0.4's defaults and no experiment
// varies.
const (
	// shuffleParallel is mapred.reduce.parallel.copies: parallel fetchers
	// per reduce task.
	shuffleParallel = 5
	// slowstartFrac of a job's maps are done before its reducers launch
	// (mapred.reduce.slowstart.completed.maps).
	slowstartFrac = 0.05
	// Speculative execution, always on: a map task that has run
	// speculativeSlowdown times the mean completed-task duration while
	// idle slots exist gets a backup attempt.
	speculativeSlowdown = 3
	// localityRetries bounds delay scheduling (Config.localityWait).
	localityRetries = 3
	// Fault mode's fetch retries before a map output is lost, and failed
	// attempts before a tracker is blacklisted: no new attempts are
	// scheduled there (Hadoop's mapred.max.tracker.failures).
	maxFetchRetries    = 3
	maxTrackerFailures = 3

	// Framework CPU costs (virtual) — a 2010s JVM stack.
	parseNsPerRecord   = 120
	parseNsPerByte     = 0.4
	sortNsPerCompare   = 25
	serializeNsPerByte = 0.5
	mergeNsPerByte     = 0.8
)

// Config is the cluster-wide runtime configuration (mapred-site.xml).
type Config struct {
	MapSlots    int // per node (the paper's 1_8 and 2_16 factor)
	ReduceSlots int // per node

	SortBufBytes    int64 // io.sort.mb: map-side buffer before a spill
	ShuffleBufBytes int64 // reduce-side in-memory merge budget
	Codec           compress.Codec

	// MaxTaskAttempts is how often fault mode (Runtime.EnableFaults)
	// attempts a map task, speculation and re-execution included, before
	// the job fails with a *JobError (mapred.map.max.attempts).
	MaxTaskAttempts int

	// Seed feeds the jitter rng of the sim.NewRetry stalls with which
	// fetchers and trackers wait out transient network faults; healthy runs
	// never draw from it.
	Seed int64

	// Derived from DefaultConfig's scale: a map task streams its input in
	// chunkBytes; an idle map slot with no data-local work waits
	// localityWait, up to localityRetries times, before taking a remote
	// split (delay scheduling; without it, slot counts near the task count
	// destroy locality); a failed fetch backs off exponentially from
	// fetchRetryDelay, up to maxFetchRetries times before its map output is
	// declared lost and the task re-executed.
	chunkBytes      int64
	localityWait    time.Duration
	fetchRetryDelay time.Duration
}

// DefaultConfig returns Hadoop-1.0.4-flavoured defaults at the given scale
// divisor: 100 MB sort buffer and 140 MB shuffle buffer at scale 1.
func DefaultConfig(scale int64) Config {
	if scale <= 0 {
		scale = 1
	}
	return Config{
		MapSlots:        8,
		ReduceSlots:     1,
		SortBufBytes:    max((100<<20)/scale, 64<<10),
		ShuffleBufBytes: max((140<<20)/scale, 64<<10),
		Codec:           compress.Identity{},
		MaxTaskAttempts: 4,
		chunkBytes:      max((1<<20)/scale*4, 16<<10),
		localityWait:    time.Duration(int64(3*time.Second) * 64 / scale),
		fetchRetryDelay: time.Duration(int64(time.Second) * 64 / scale),
	}
}

// Counters aggregates the per-job statistics Hadoop reports.
type Counters struct {
	MapTasks    int
	ReduceTasks int
	LocalMaps   int // data-local map tasks
	RemoteMaps  int

	MapInputRecords     int64
	MapInputBytes       int64
	MapOutputRecords    int64
	MapOutputBytes      int64 // before compression
	CompressedMapOutput int64 // after compression (what hits the disk)
	Spills              int64
	CombineInput        int64

	SpeculativeAttempts int64 // backup map attempts launched
	SpeculativeWins     int64 // backups that beat the original

	// Fault-recovery counters, nonzero only under fault injection.
	ReExecutedMaps      int64 // map tasks re-run because their output was lost
	FetchRetries        int64 // reduce fetch attempts that were retried
	FailedFetches       int64 // fetches abandoned after maxFetchRetries
	NetFetchStalls      int64 // fetch retries spent waiting out transient network faults
	BlacklistedTrackers int64 // trackers excluded after maxTrackerFailures
	DoubleRegistrations int64 // rejoins that would have over-filled a node's slots (must stay 0)

	ShuffleBytes        int64 // compressed bytes moved to reducers
	ReduceSpills        int64
	ReduceInputRecords  int64
	ReduceOutputRecords int64
	ReduceOutputBytes   int64

	// I/O attribution (the paper's future work: "reveal the major source
	// of I/O demand"): logical bytes per pipeline stage.
	MapSpillBytes       int64 // map-side spill writes (post-codec)
	MapMergeReadBytes   int64 // spill re-reads during the map-side merge
	MapMergeWriteBytes  int64 // merged map-output writes (post-codec)
	ReduceRunWriteBytes int64 // reduce-side shuffle-run spills
	ReduceRunReadBytes  int64 // reduce-side run re-reads at final merge
}

// JobError is the typed failure a job returns when recovery is exhausted:
// a map task burned through MaxTaskAttempts, a reduce output could not be
// stored, or the cluster lost too many nodes to finish.
type JobError struct {
	Job    string
	Reason string
	Err    error // underlying cause, if any
}

func (e *JobError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("mapred: job %s failed: %s: %v", e.Job, e.Reason, e.Err)
	}
	return fmt.Sprintf("mapred: job %s failed: %s", e.Job, e.Reason)
}

func (e *JobError) Unwrap() error { return e.Err }

// Result reports a completed job.
type Result struct {
	Counters
	Start    time.Duration
	MapsDone time.Duration // when the last map task finished
	End      time.Duration
}

// Runtime returns the job's total runtime.
func (r *Result) Runtime() time.Duration { return r.End - r.Start }
