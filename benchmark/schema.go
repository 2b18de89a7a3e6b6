package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
)

// metricDef declares one metric. exact marks a value drawn from the
// simulation: it repeats bit-for-bit for a given seed and may be compared
// exactly between commits, unlike host measurements.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	exact  bool
}

// The five end-to-end metrics: all host-side, lower is better, reported for
// every workload.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "host_wall_s", Unit: "s", Better: "lower"},
	{Name: "host_cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
}

// perLayerDefs lists the per-layer metrics: a CPU and an allocation bucket
// per layer, then each layer's own counters.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d, metricDef{Name: l + ".cpu_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		if l != "go_gc" && l != "go_sched" {
			d = append(d, metricDef{Name: l + ".alloc_mb", Unit: "MB", Better: "lower"})
		}
	}
	sim := func(name, unit, better string) { d = append(d, metricDef{name, unit, better, true}) }
	host := func(name, unit, better string) { d = append(d, metricDef{name, unit, better, false}) }

	sim("sim.events", "count", "lower")
	host("sim.events_per_host_s", "1/s", "higher")

	sim("disk.hdfs_reqs", "count", "lower")
	sim("disk.mr_reqs", "count", "lower")
	sim("disk.hdfs_mb", "MB", "lower")
	sim("disk.mr_mb", "MB", "lower")
	sim("disk.hdfs_await_ms", "ms", "lower")
	sim("disk.mr_await_ms", "ms", "lower")
	sim("disk.hdfs_avgrq_sectors", "sectors", "higher")
	sim("disk.mr_avgrq_sectors", "sectors", "higher")
	sim("disk.mr_util_pct", "%", "lower")
	sim("disk.merged_reqs", "count", "higher")

	sim("pagecache.hits", "count", "higher")
	sim("pagecache.misses", "count", "lower")
	sim("pagecache.hit_ratio", "ratio", "higher")
	sim("pagecache.readahead_pages", "count", "higher")
	sim("pagecache.flushed_pages", "count", "lower")
	sim("pagecache.evicted_dirty", "count", "lower")
	sim("pagecache.throttle_stalls", "count", "lower")

	sim("localfs.files_created", "count", "lower")
	sim("localfs.written_mb", "MB", "lower")
	sim("localfs.read_mb", "MB", "lower")
	sim("localfs.leaked_sectors", "sectors", "lower")

	sim("netsim.sent_mb", "MB", "lower")
	sim("netsim.tx_busy_s", "s", "lower")
	sim("netsim.uplink_mb", "MB", "lower")
	sim("netsim.retrans_mb", "MB", "lower")
	sim("netsim.failed_transfers", "count", "lower")

	sim("hdfs.blocks", "count", "lower")
	host("hdfs.load_host_s", "s", "lower")
	sim("hdfs.rereplicated_blocks", "count", "lower")
	sim("hdfs.read_failovers", "count", "lower")
	sim("hdfs.net_stalls", "count", "lower")
	sim("hdfs.nn_journal_mb", "MB", "lower")
	sim("hdfs.nn_journal_batches", "count", "lower")
	sim("hdfs.nn_checkpoints", "count", "lower")
	sim("hdfs.nn_replay_mb", "MB", "lower")
	sim("hdfs.nn_client_stall_s", "s", "lower")

	sim("mapred.jobs", "count", "lower")
	sim("mapred.map_tasks", "count", "lower")
	sim("mapred.reduce_tasks", "count", "lower")
	sim("mapred.local_map_ratio", "ratio", "higher")
	sim("mapred.spills", "count", "lower")
	sim("mapred.map_output_mb", "MB", "lower")
	sim("mapred.spill_write_mb", "MB", "lower")
	sim("mapred.merge_read_mb", "MB", "lower")
	sim("mapred.shuffle_mb", "MB", "lower")
	sim("mapred.reexecuted_maps", "count", "lower")
	sim("mapred.fetch_retries", "count", "lower")
	sim("mapred.virt_map_phase_s", "s", "lower")
	sim("mapred.virt_reduce_tail_s", "s", "lower")
	sim("mapred.jt_journal_mb", "MB", "lower")
	sim("mapred.jt_grant_stall_s", "s", "lower")

	sim("compress.compress_calls", "count", "lower")
	sim("compress.compress_in_mb", "MB", "lower")
	host("compress.compress_host_s", "s", "lower")
	sim("compress.decompress_calls", "count", "lower")
	sim("compress.decompress_out_mb", "MB", "lower")
	host("compress.decompress_host_s", "s", "lower")
	sim("compress.ratio", "ratio", "higher")

	sim("datagen.mb", "MB", "lower")
	host("datagen.host_s", "s", "lower")

	sim("workloads.map_records", "count", "lower")
	sim("workloads.reduce_records", "count", "lower")

	sim("iostat.samples", "count", "lower")
	sim("iostat.hist_requests", "count", "lower")
	sim("iostat.trace_records", "count", "lower")

	sim("faults.fired", "count", "lower")

	sim("core.virt_wall_s", "s", "lower")
	sim("core.outcome_hash32", "id", "lower")
	sim("core.virt_cpu_util_pct", "%", "higher")
	host("core.prepare_host_s", "s", "lower")
	host("core.gc_cycles", "count", "lower")
	host("core.gc_pause_ms", "ms", "lower")
	host("core.trace_overhead_pct", "%", "lower")
	sim("core.audit_violations", "count", "lower")
	sim("core.suite_cells", "count", "lower")
	host("core.suite_seq_s", "s", "lower")
	host("core.suite_parallel_speedup", "ratio", "higher")
	host("core.render_s", "s", "lower")
	host("core.cache_warm_rerun_s", "s", "lower")
	host("core.cache_store_mb", "MB", "lower")
	return d
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stat is an end-to-end metric in a result file: the value the driver sees,
// plus what -compare needs to tell a regression from noise.
type stat struct {
	Value     float64   `json:"value"`     // the Estimator of Samples
	Estimator string    `json:"estimator"` // "median" or "max"
	Unit      string    `json:"unit"`
	N         int       `json:"n"`
	Q1        float64   `json:"q1"`
	Median    float64   `json:"median"`
	Q3        float64   `json:"q3"`
	Samples   []float64 `json:"samples"`
}

// newStat summarises samples by their median or, for estimator "max", by
// their maximum. That one is for peak memory: a high-water mark over several
// processes is their maximum, and how garbage collections happen to line up
// with the allocation peaks makes the lower values the unsteady ones.
func newStat(unit, estimator string, samples []float64) stat {
	s := stat{Unit: unit, N: len(samples), Samples: samples, Estimator: "median", Median: median(samples)}
	s.Q1, s.Q3, s.Value = s.Median, s.Median, s.Median
	if len(samples) >= 2 {
		q := quartiles(samples)
		s.Q1, s.Q3 = q[0], q[2]
	}
	if estimator == "max" && len(samples) > 0 {
		s.Estimator, s.Value = "max", slices.Max(samples)
	}
	return s
}

// spread is the interquartile range as a share of the reported value.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// driver applies to the ten-seed spreads. It needs at least two values.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// envBlock records what a result was measured under.
type envBlock struct {
	GoVersion        string   `json:"go_version"`
	NumCPU           int      `json:"nproc"`
	GOMAXPROCS       int      `json:"gomaxprocs"` // of the children; suite_all's get suite_parallelism
	GOGC             string   `json:"gogc"`
	GitRev           string   `json:"git_rev"`
	Seed             int64    `json:"seed"`
	RunSeconds       float64  `json:"run_seconds"`
	Children         int      `json:"children_per_run"`
	SuiteParallelism int      `json:"suite_parallelism"`
	Notes            []string `json:"notes,omitempty"`
}

// workloadResult is one workload's full measurement: end-to-end metrics from
// the untraced children, per-layer metrics from the traced child.
type workloadResult struct {
	Name            string           `json:"name"`
	OpsAttempted    int              `json:"ops_attempted"`
	OpsFailed       int              `json:"ops_failed"`
	Failures        []string         `json:"failures,omitempty"`
	EndToEnd        map[string]stat  `json:"end_to_end,omitempty"`
	RefKernelMS     float64          `json:"ref_kernel_ms,omitempty"` // median over the timed iterations, unscaled
	PerLayer        map[string]value `json:"per_layer,omitempty"`
	ProfileOtherPct float64          `json:"profile_other_pct"`
	ProfileCopyPct  float64          `json:"profile_memmove_pct"`
	TraceFile       string           `json:"trace_file,omitempty"`
}

// result is benchmark/out/result.json. This benchmark only measures: Claim
// stays null until a later change states one.
type result struct {
	Schema    int              `json:"schema"`
	Claim     *string          `json:"claim"`
	Env       envBlock         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

const resultSchema = 1

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate checks the names and counts the driver's contract fixes.
func (r *result) validate() error {
	if r.Schema != resultSchema {
		return fmt.Errorf("result: schema %d, want %d", r.Schema, resultSchema)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("result: no workloads")
	}
	for _, w := range r.Workloads {
		if !nameRE.MatchString(w.Name) {
			return fmt.Errorf("result: bad workload name %q", w.Name)
		}
		if len(w.EndToEnd) > 16 {
			return fmt.Errorf("result: %s: %d end-to-end metrics, at most 16", w.Name, len(w.EndToEnd))
		}
		if len(w.PerLayer) > 128 {
			return fmt.Errorf("result: %s: %d per-layer metrics, at most 128", w.Name, len(w.PerLayer))
		}
		names := make([]string, 0, len(w.EndToEnd)+len(w.PerLayer))
		for name := range w.EndToEnd {
			names = append(names, name)
		}
		for name := range w.PerLayer {
			names = append(names, name)
		}
		for _, name := range names {
			if !nameRE.MatchString(name) {
				return fmt.Errorf("result: %s: bad metric name %q", w.Name, name)
			}
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// benchmarkJSON is the part of BENCHMARK.json the program reads back: the
// bounds -compare applies, and the run length.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bj := &benchmarkJSON{}
	if err := json.Unmarshal(b, bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bj, nil
}

func (bj *benchmarkJSON) bound(metric string) (float64, bool) {
	for _, m := range bj.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}
