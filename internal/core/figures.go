package core

import (
	"fmt"

	"iochar/internal/iostat"
	"iochar/internal/stats"
)

// SeriesRow is one plotted line/bar of a figure panel: a workload under one
// factor level, with summary statistics and the (downsampled) time series.
type SeriesRow struct {
	Label    string // e.g. "AGG_1_8", "TS_32G", "KM_on"
	Mean     float64
	MeanBusy float64 // mean over non-idle sampling intervals
	Peak     float64
	// Summary is the headline value for bars and comparisons: the whole-run
	// mean for bandwidth (bytes are conserved, so bursts must not inflate
	// it) and the busy-interval mean for utilization/latency/request-size
	// (idle intervals carry no such sample).
	Summary float64
	Series  *stats.Series
}

// Panel is one subfigure ((a), (b), ...).
type Panel struct {
	Title string
	Unit  string
	Rows  []SeriesRow
}

// FigureData is everything needed to render one paper figure.
type FigureData struct {
	ID     int
	Title  string
	Note   string
	Panels []Panel
}

// TableData is one paper table.
type TableData struct {
	ID     int
	Title  string
	Header []string
	Rows   [][]string
}

// metric selects one iostat series and names it.
type metric struct {
	name string
	unit string
	sel  func(*iostat.Report) *stats.Series
}

var (
	metricRead  = metric{"Disk Read Bandwidth", "MB/s", func(r *iostat.Report) *stats.Series { return r.RMBs }}
	metricWrite = metric{"Disk Write Bandwidth", "MB/s", func(r *iostat.Report) *stats.Series { return r.WMBs }}
	metricUtil  = metric{"Disk Utilization", "%util", func(r *iostat.Report) *stats.Series { return r.Util }}
	metricWait  = metric{"Avg Waiting Time of I/O Requests", "ms (await-svctm)", func(r *iostat.Report) *stats.Series { return r.WaitMs }}
	metricRqSz  = metric{"Avg Size of I/O Requests", "sectors (avgrq-sz)", func(r *iostat.Report) *stats.Series { return r.AvgrqSz }}
)

// family bundles an experiment family's runs with how it names a level
// for display ("1_8"/"2_16", "16G"/"32G", "off"/"on").
type family struct {
	runs  []Factors
	label func(Factors) string
}

var (
	famSlots    = family{SlotsRuns, func(f Factors) string { return f.Slots.Name }}
	famMemory   = family{MemoryRuns, func(f Factors) string { return fmt.Sprintf("%dG", f.MemoryGB) }}
	famCompress = family{CompressRuns, func(f Factors) string {
		if f.Compress {
			return "on"
		}
		return "off"
	}}
)

// scenario selects a disk group from a run report.
type scenario struct {
	name string
	sel  func(*RunReport) *iostat.Report
}

var (
	scenHDFS = scenario{"HDFS", func(r *RunReport) *iostat.Report { return r.HDFS }}
	scenMR   = scenario{"MapReduce", func(r *RunReport) *iostat.Report { return r.MR }}
)

// panel builds one subfigure: every workload under every factor level of
// the family, for one metric and scenario.
func (s *Suite) panel(fam family, m metric, sc scenario) (Panel, error) {
	p := Panel{Title: fmt.Sprintf("%s — %s", sc.name, m.name), Unit: m.unit}
	for _, wkey := range WorkloadOrder {
		for _, f := range fam.runs {
			rep, err := s.Run(wkey, f)
			if err != nil {
				return Panel{}, err
			}
			series := m.sel(sc.sel(rep))
			row := SeriesRow{
				Label:    wkey.String() + "_" + fam.label(f),
				Mean:     series.Mean(),
				MeanBusy: series.MeanNonzero(),
				Peak:     series.Max(),
				Series:   series.Downsample(60),
			}
			if m.unit == "MB/s" {
				row.Summary = row.Mean
			} else {
				row.Summary = row.MeanBusy
			}
			p.Rows = append(p.Rows, row)
		}
	}
	return p, nil
}

// figureSpec describes one paper figure declaratively.
type figureSpec struct {
	title  string
	note   string
	fam    family
	m      metric
	panels []scenario // one Panel per scenario, read first for R then W when both metrics
	both   bool       // read+write bandwidth figure (panels duplicated per metric)
}

var figureSpecs = map[int]figureSpec{
	1: {title: "Effects of task slots on Disk R/W Bandwidth (HDFS & MapReduce)",
		note: "mem=16G, compression=on", fam: famSlots, m: metricRead, both: true,
		panels: []scenario{scenHDFS, scenMR}},
	2: {title: "Effects of memory on Disk R/W Bandwidth (HDFS & MapReduce)",
		note: "slots=1_8, compression=off", fam: famMemory, m: metricRead, both: true,
		panels: []scenario{scenHDFS, scenMR}},
	3: {title: "Effects of compression on Disk R/W Bandwidth (MapReduce)",
		note: "mem=32G, slots=1_8", fam: famCompress, m: metricRead, both: true,
		panels: []scenario{scenMR}},
	4: {title: "Effects of task slots on Disk Utilization",
		note: "mem=16G, compression=on", fam: famSlots, m: metricUtil,
		panels: []scenario{scenHDFS, scenMR}},
	5: {title: "Effects of memory on Disk Utilization",
		note: "slots=1_8, compression=off", fam: famMemory, m: metricUtil,
		panels: []scenario{scenHDFS, scenMR}},
	6: {title: "Effects of compression on Disk Utilization",
		note: "mem=32G, slots=1_8", fam: famCompress, m: metricUtil,
		panels: []scenario{scenHDFS, scenMR}},
	7: {title: "Effects of task slots on Disk waiting time of I/O requests",
		note: "mem=16G, compression=on", fam: famSlots, m: metricWait,
		panels: []scenario{scenHDFS, scenMR}},
	8: {title: "Effects of memory on Disk waiting time of I/O requests",
		note: "slots=1_8, compression=off", fam: famMemory, m: metricWait,
		panels: []scenario{scenHDFS, scenMR}},
	9: {title: "Effects of compression on Disk waiting time of I/O requests",
		note: "mem=32G, slots=1_8", fam: famCompress, m: metricWait,
		panels: []scenario{scenHDFS, scenMR}},
	10: {title: "Effects of task slots on Disk average size of I/O requests",
		note: "mem=16G, compression=on", fam: famSlots, m: metricRqSz,
		panels: []scenario{scenHDFS, scenMR}},
	11: {title: "Effects of memory on Disk average size of I/O requests",
		note: "slots=1_8, compression=off", fam: famMemory, m: metricRqSz,
		panels: []scenario{scenHDFS, scenMR}},
	12: {title: "Effects of compression on Disk average size of I/O requests (MapReduce)",
		note: "mem=32G, slots=1_8", fam: famCompress, m: metricRqSz,
		panels: []scenario{scenMR}},
}

// Figure regenerates the data behind paper Figure n (1-12).
func (s *Suite) Figure(n int) (*FigureData, error) {
	spec, ok := figureSpecs[n]
	if !ok {
		return nil, fmt.Errorf("core: no figure %d (paper has 1-12)", n)
	}
	fd := &FigureData{ID: n, Title: spec.title, Note: spec.note}
	if spec.both {
		// Bandwidth figures carry read and write panels per scenario,
		// ordered as in the paper: reads first, then writes.
		for _, m := range []metric{metricRead, metricWrite} {
			for _, sc := range spec.panels {
				p, err := s.panel(spec.fam, m, sc)
				if err != nil {
					return nil, err
				}
				fd.Panels = append(fd.Panels, p)
			}
		}
		return fd, nil
	}
	for _, sc := range spec.panels {
		p, err := s.panel(spec.fam, spec.m, sc)
		if err != nil {
			return nil, err
		}
		fd.Panels = append(fd.Panels, p)
	}
	return fd, nil
}

// Table regenerates paper Table n (5, 6 or 7). Tables 1-4 are configuration
// and notation, encoded as defaults throughout the packages.
func (s *Suite) Table(n int) (*TableData, error) {
	switch n {
	case 5:
		return s.table5()
	case 6:
		return s.utilTable(6, "The Peak ratio of HDFS disk utilization", scenHDFS)
	case 7:
		return s.utilTable(7, "The ratio of MapReduce disk utilization", scenMR)
	}
	return nil, fmt.Errorf("core: no table %d (reproducible tables are 5, 6, 7)", n)
}

// table5 is the peak HDFS disk read bandwidth per workload × slots config.
func (s *Suite) table5() (*TableData, error) {
	t := &TableData{
		ID:     5,
		Title:  "Peak HDFS Disk Read Bandwidth (MB/s)",
		Header: []string{"Workload", "1_8", "2_16"},
	}
	for _, wkey := range WorkloadOrder {
		row := []string{wkey.String()}
		for _, f := range SlotsRuns {
			rep, err := s.Run(wkey, f)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", rep.HDFS.RMBs.Max()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// utilTable is the fraction of sampled intervals with %util above each
// threshold, per workload (Tables 6 and 7), on the baseline slots run.
func (s *Suite) utilTable(id int, title string, sc scenario) (*TableData, error) {
	t := &TableData{
		ID:     id,
		Title:  title,
		Header: append([]string{""}, workloadHeader()...),
	}
	thresholds := []float64{90, 95, 99}
	rows := make([][]string, len(thresholds))
	for i, thr := range thresholds {
		rows[i] = []string{fmt.Sprintf(">%.0f%%util", thr)}
	}
	for _, wkey := range WorkloadOrder {
		rep, err := s.Run(wkey, SlotsRuns[0])
		if err != nil {
			return nil, err
		}
		// Per-disk pooled samples: the paper's ratios count (disk, interval)
		// pairs above each threshold, which a 30-disk average would erase.
		util := sc.sel(rep).UtilPool
		for i, thr := range thresholds {
			rows[i] = append(rows[i], fmt.Sprintf("%.1f%%", util.FracAbove(thr)*100))
		}
	}
	t.Rows = rows
	return t, nil
}

// workloadHeader renders WorkloadOrder as table-header cells.
func workloadHeader() []string {
	out := make([]string, len(WorkloadOrder))
	for i, w := range WorkloadOrder {
		out[i] = w.String()
	}
	return out
}

// Figures lists the reproducible figure numbers.
func Figures() []int {
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
}

// Tables lists the reproducible table numbers.
func Tables() []int { return []int{5, 6, 7} }
