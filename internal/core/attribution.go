package core

import (
	"fmt"
	"math"

	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/mapred"
	"iochar/internal/stats"
)

// Attribution breaks one workload's logical I/O volume down by pipeline
// stage — the paper's stated future work ("combine a low-level description
// of physical resources and the high-level functional composition of big
// data workloads to reveal the major source of I/O demand"), implemented.
//
// Bytes are logical, as each stage's committed attempt issued them, like
// Hadoop's job counters: a backup's or re-executed map's I/O shows only in
// the physical table (0-3 % of intermediate writes at the default scale, up
// to 38 % on tiny testbeds). HDFS writes additionally fan out by the
// replication factor at the device level.
type Attribution struct {
	HDFSInputRead   int64 // map-task split reads
	HDFSOutputWrite int64 // reduce output (pre-replication)
	SpillWrite      int64 // map-side spill writes (post-codec)
	MergeRead       int64 // map-side merge re-reads
	MergeWrite      int64 // map-side merged output writes
	ShuffleRead     int64 // map-output reads serving reducers
	RunWrite        int64 // reduce-side shuffle-run spills
	RunRead         int64 // reduce-side run re-reads
}

// Total returns the summed logical volume.
func (a *Attribution) Total() int64 {
	return a.HDFSInputRead + a.HDFSOutputWrite + a.SpillWrite + a.MergeRead +
		a.MergeWrite + a.ShuffleRead + a.RunWrite + a.RunRead
}

// MRShare returns the fraction of logical I/O on the intermediate
// (MapReduce) disks.
func (a *Attribution) MRShare() float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	mr := a.SpillWrite + a.MergeRead + a.MergeWrite + a.ShuffleRead + a.RunWrite + a.RunRead
	return float64(mr) / float64(t)
}

// attribution folds job counters into the breakdown.
func attribution(jobs []*mapred.Result) *Attribution {
	a := &Attribution{}
	for _, j := range jobs {
		a.HDFSInputRead += j.MapInputBytes
		a.HDFSOutputWrite += j.ReduceOutputBytes
		a.SpillWrite += j.MapSpillBytes
		a.MergeRead += j.MapMergeReadBytes
		a.MergeWrite += j.MapMergeWriteBytes
		a.ShuffleRead += j.ShuffleBytes
		a.RunWrite += j.ReduceRunWriteBytes
		a.RunRead += j.ReduceRunReadBytes
	}
	return a
}

// Attribution runs (or reuses) the workload's baseline cell and returns the
// per-stage I/O breakdown.
func (s *Suite) Attribution(w Workload, f Factors) (*Attribution, error) {
	rep, err := s.Run(w, f)
	if err != nil {
		return nil, err
	}
	return attribution(rep.Jobs), nil
}

// AttributionTable renders the breakdown of every workload under the
// baseline slots configuration as a table: rows are stages, columns
// workloads, cells "MB (share%)".
func (s *Suite) AttributionTable() (*TableData, error) {
	type stage struct {
		name string
		sel  func(*Attribution) int64
	}
	stages := []stage{
		{"HDFS input read", func(a *Attribution) int64 { return a.HDFSInputRead }},
		{"HDFS output write", func(a *Attribution) int64 { return a.HDFSOutputWrite }},
		{"map spill write", func(a *Attribution) int64 { return a.SpillWrite }},
		{"map merge read", func(a *Attribution) int64 { return a.MergeRead }},
		{"map merge write", func(a *Attribution) int64 { return a.MergeWrite }},
		{"shuffle read", func(a *Attribution) int64 { return a.ShuffleRead }},
		{"reduce run write", func(a *Attribution) int64 { return a.RunWrite }},
		{"reduce run read", func(a *Attribution) int64 { return a.RunRead }},
	}
	t := &TableData{
		ID:     0,
		Title:  "Sources of I/O demand (logical MB and share of workload total; extension of the paper's future work)",
		Header: append([]string{"stage"}, workloadHeader()...),
	}
	atts := map[Workload]*Attribution{}
	for _, wkey := range WorkloadOrder {
		a, err := s.Attribution(wkey, SlotsRuns[0])
		if err != nil {
			return nil, err
		}
		atts[wkey] = a
	}
	for _, st := range stages {
		row := []string{st.name}
		for _, wkey := range WorkloadOrder {
			a := atts[wkey]
			v := st.sel(a)
			share := 0.0
			if a.Total() > 0 {
				share = float64(v) / float64(a.Total()) * 100
			}
			row = append(row, fmt.Sprintf("%.1f (%2.0f%%)", float64(v)/(1<<20), share))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PhysicalAttribution is device-level per-stage totals of a run's
// stage-tagged request completions (DiskLog.Physical) — the physical
// counterpart of Attribution's logical byte counts. The two differ by
// exactly the layers in between: the page cache absorbs re-reads and
// short-lived spills, writeback clusters small appends into large requests,
// and HDFS writes fan out by the replication factor.
type PhysicalAttribution struct {
	Reads      [disk.NumStages]uint64
	Writes     [disk.NumStages]uint64
	ReadBytes  [disk.NumStages]int64
	WriteBytes [disk.NumStages]int64
}

// Table renders the accumulated per-stage physical totals; stages with no
// traffic are omitted. The "-" row is traffic no stage claimed (setup,
// tests, direct volume users).
func (pa *PhysicalAttribution) Table() *TableData {
	t := &TableData{
		ID:     0,
		Title:  "Physical I/O by pipeline stage (device-level: post-cache, post-merge, replicated)",
		Header: []string{"stage", "reads", "read MB", "writes", "write MB"},
	}
	for st := disk.Stage(0); int(st) < disk.NumStages; st++ {
		if pa.Reads[st] == 0 && pa.Writes[st] == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			st.String(),
			fmt.Sprintf("%d", pa.Reads[st]),
			fmt.Sprintf("%.1f", float64(pa.ReadBytes[st])/(1<<20)),
			fmt.Sprintf("%d", pa.Writes[st]),
			fmt.Sprintf("%.1f", float64(pa.WriteBytes[st])/(1<<20)),
		})
	}
	return t
}

// LatencyTable renders per-request await/svctm/request-size distributions
// (p50/p95/p99/max) for the given cells, or for every workload's baseline
// cell when none is given — the tail companion to Table 4's interval means.
// Every run fills the distributions, and they serialize with the report,
// so the table is served from the run cache like any figure.
func (s *Suite) LatencyTable(cells ...Cell) (*TableData, error) {
	if len(cells) == 0 {
		for _, wkey := range WorkloadOrder {
			cells = append(cells, Cell{wkey, SlotsRuns[0]})
		}
	}
	t := &TableData{
		ID:     0,
		Title:  "I/O latency and request-size distributions (per physical request; extension of Table 4)",
		Header: []string{"workload", "group", "metric", "p50", "p95", "p99", "max"},
	}
	for _, c := range cells {
		rep, err := s.Run(c.Workload, c.Factors)
		if err != nil {
			return nil, err
		}
		for _, gr := range []struct {
			name string
			r    *iostat.Report
		}{{"HDFS", rep.HDFS}, {"MR", rep.MR}} {
			h := gr.r.Hists
			if h == nil || h.Requests == 0 {
				continue
			}
			add := func(metric, format string, hist *stats.Histogram, max float64) {
				// Bucketed quantiles can overshoot the observed maximum
				// (they report the bucket's upper edge); clamp for display.
				q := func(p float64) float64 { return math.Min(hist.Quantile(p), max) }
				t.Rows = append(t.Rows, []string{
					c.Workload.String(), gr.name, metric,
					fmt.Sprintf(format, q(0.50)),
					fmt.Sprintf(format, q(0.95)),
					fmt.Sprintf(format, q(0.99)),
					fmt.Sprintf(format, max),
				})
			}
			add("await ms", "%.2f", h.Await, h.AwaitMaxMs)
			add("svctm ms", "%.2f", h.Svctm, h.SvctmMaxMs)
			add("rq-sz sect", "%.0f", h.Size, h.SizeMax)
		}
	}
	return t, nil
}
