package iochar

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"iochar/internal/core"
	"iochar/internal/report"
)

// benchOpts is the shared benchmark testbed: the paper's 1+10 layout at an
// aggressive scale so a full -bench=. pass stays in minutes. Experiment
// cells are cached in one suite across all figure/table benchmarks, exactly
// as `iochar -all` shares them, so each cell executes once per `go test`.
var benchOpts = core.Options{
	Scale:         16384,
	Slaves:        10,
	MapTaskTarget: 64,
	Seed:          1,
}

var (
	benchSuiteOnce sync.Once
	benchSuite     *core.Suite
)

func suite() *core.Suite {
	benchSuiteOnce.Do(func() { benchSuite = core.NewSuite(benchOpts) })
	return benchSuite
}

// reportShape attaches the figure's headline numbers to the benchmark
// output so `go test -bench` doubles as the reproduction record.
func reportShape(b *testing.B, fd *core.FigureData) {
	b.Helper()
	for _, panel := range fd.Panels {
		for _, r := range panel.Rows {
			b.ReportMetric(r.Summary, fmt.Sprintf("%s/%s", sanitize(panel.Title), r.Label))
		}
		break // first panel is enough for the metric line; full data via cmd/iochar
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '—':
			out = append(out, '_')
		case r == '/':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// benchFigure regenerates one paper figure per iteration (cached after the
// first, as in the CLI).
func benchFigure(b *testing.B, n int) {
	b.Helper()
	var fd *core.FigureData
	var err error
	for i := 0; i < b.N; i++ {
		fd, err = suite().Figure(n)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportShape(b, fd)
}

// One benchmark per evaluation figure (paper Figures 1-12).

func BenchmarkFigure1(b *testing.B)  { benchFigure(b, 1) }
func BenchmarkFigure2(b *testing.B)  { benchFigure(b, 2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, 3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, 4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, 5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, 6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, 7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, 8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, 9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, 10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, 11) }
func BenchmarkFigure12(b *testing.B) { benchFigure(b, 12) }

// One benchmark per evaluation table (paper Tables 5-7).

func benchTable(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := suite().Table(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, 6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, 7) }

// BenchmarkWorkloads times one full execution of each workload per
// iteration on a fresh testbed — the raw cost of the simulation itself.
func BenchmarkWorkloads(b *testing.B) {
	for _, wkey := range core.WorkloadOrder {
		b.Run(wkey.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.RunOne(wkey, core.SlotsRuns[0], benchOpts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(rep.Wall.Seconds(), "virtual-s/op")
				}
			}
		})
	}
}

// BenchmarkPaperScale is the host-cost ledger's paper-shaped row: TeraSort at
// 32 GB with compression off on the paper's 1 + 10 nodes at 1/1024, seed 1.
// Its CPU profile names the layer the next host-cost change should target.
// With dir a directory outside the checkout:
//
//	go test -run '^$' -bench PaperScale -benchtime 1x -o "$dir/iochar.test" \
//		-outputdir "$dir" -cpuprofile cpu.out -memprofile mem.out .
//
// It holds ~4.4 GB at its peak; peak-rss-MB is the test process's
// high-water mark (Linux only).
func BenchmarkPaperScale(b *testing.B) {
	opts := core.Options{Scale: 1024, Slaves: 10, Seed: 1}
	var events uint64
	for i := 0; i < b.N; i++ {
		rep, err := core.RunOne(core.TS, core.MemoryRuns[1], opts)
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Events
		b.ReportMetric(rep.Wall.Seconds(), "virtual-s/op")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64); err == nil {
					b.ReportMetric(v/1024, "peak-rss-MB")
				}
			}
		}
	}
}

// Ablation benchmarks: the design choices DESIGN.md calls out, each toggled
// off to show its effect on the headline metrics. Results are reported as
// custom metrics, not asserted — ablations are evidence, not tests.

// BenchmarkAblationCompression contrasts TeraSort's intermediate traffic
// with the codec on and off (the paper's Figure 3/12 mechanism).
func BenchmarkAblationCompression(b *testing.B) {
	for _, f := range core.CompressRuns {
		name := "off"
		if f.Compress {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var rep *core.RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = suite().Run(core.TS, f)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MR.TotalWrittenBytes)/(1<<20), "MR-written-MB")
			b.ReportMetric(rep.MR.AvgrqSz.MeanNonzero(), "MR-avgrq-sz")
		})
	}
}

// BenchmarkAblationMemory contrasts the 16 GB and 32 GB testbeds for
// TeraSort (the paper's Figures 2/5/8/11 mechanism).
func BenchmarkAblationMemory(b *testing.B) {
	for _, f := range core.MemoryRuns {
		b.Run(fmt.Sprintf("%dG", f.MemoryGB), func(b *testing.B) {
			var rep *core.RunReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = suite().Run(core.TS, f)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MR.TotalReads+rep.MR.TotalWrites), "MR-requests")
			b.ReportMetric(rep.Wall.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkRenderAll exercises the full figure+table rendering path against
// the cached suite (the cost of reporting, separated from simulation).
func BenchmarkRenderAll(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		for _, n := range core.Figures() {
			fd, err := s.Figure(n)
			if err != nil {
				b.Fatal(err)
			}
			report.WriteFigure(io.Discard, fd)
		}
		for _, n := range core.Tables() {
			td, err := s.Table(n)
			if err != nil {
				b.Fatal(err)
			}
			report.WriteTable(io.Discard, td)
		}
	}
}
