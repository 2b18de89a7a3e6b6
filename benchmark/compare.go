package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
)

// compareFiles judges result B against result A under the bounds fixed in
// BENCHMARK.json. A breach is an end-to-end value worse by more than its
// bound, more failed operations, or — for equal seeds — a simulation
// counter that differs at all. Where either side's own spread exceeds the
// bound the pair is reported as unresolved rather than as unchanged, unless
// every sample of B reads better than every sample of A.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (breach bool, err error) {
	bj, err := loadBenchmarkJSON(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (rev %q, seed %d)\nB: %s (rev %q, seed %d)\n", pathA, a.Env.GitRev, a.Env.Seed, pathB, b.Env.GitRev, b.Env.Seed)
	sameSeed := a.Env.Seed == b.Env.Seed
	if !sameSeed {
		fmt.Fprintln(w, "seeds differ: simulation counters are not compared")
	}

	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from B\n", wa.Name)
			breach = true
			continue
		}
		if wb.OpsFailed > wa.OpsFailed {
			fmt.Fprintf(w, "%-12s BREACH  failed operations %d -> %d\n", wa.Name, wa.OpsFailed, wb.OpsFailed)
			breach = true
		}
		for _, d := range endToEndDefs {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			bound, okBound := bj.bound(d.Name)
			if !okA || !okB || !okBound || sa.Value == 0 {
				continue
			}
			worse := (sb.Value - sa.Value) / sa.Value // every end-to-end metric is lower-is-better
			verdict := "ok"
			switch {
			case slices.Max(sb.Samples) < slices.Min(sa.Samples):
				verdict = "better (every B sample below every A sample)"
			case sa.spread() > bound || sb.spread() > bound:
				verdict = fmt.Sprintf("unresolved (spread A %.1f%%, B %.1f%% exceeds the bound)", 100*sa.spread(), 100*sb.spread())
			case worse > bound:
				verdict = "BREACH"
				breach = true
			}
			fmt.Fprintf(w, "%-12s %-12s %12.4f -> %12.4f %-3s %+6.1f%% (bound %.0f%%)  %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, sa.Unit, 100*worse, 100*bound, verdict)
		}
		if !sameSeed || len(wa.PerLayer) == 0 || len(wb.PerLayer) == 0 {
			continue
		}
		for _, d := range perLayerDefs {
			if d.exact && wa.PerLayer[d.Name].Value != wb.PerLayer[d.Name].Value {
				fmt.Fprintf(w, "%-12s BREACH  simulation counter %s: %v -> %v\n", wa.Name, d.Name, wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value)
				breach = true
			}
		}
	}
	if breach {
		fmt.Fprintln(w, "compare: BREACH")
	} else {
		fmt.Fprintln(w, "compare: within bounds")
	}
	return breach, nil
}

// calibration is what -calibrate writes: for each workload and end-to-end
// metric, the values K same-code runs report and their spread, the number a
// bound has to clear.
type calibration struct {
	Env       envBlock              `json:"env"`
	Sets      int                   `json:"sets"`
	Workloads []calibrationWorkload `json:"workloads"`
}

type calibrationWorkload struct {
	Name    string                       `json:"name"`
	Metrics map[string]calibrationMetric `json:"metrics"`
}

type calibrationMetric struct {
	Values    []float64 `json:"values"`     // the reported value of each set
	Median    float64   `json:"median"`     // of the values
	SpreadPct float64   `json:"spread_pct"` // interquartile range of the values over their median
	WithinPct float64   `json:"within_pct"` // widest spread inside any one set
	BoundPct  float64   `json:"bound_pct"`  // the bound BENCHMARK.json fixes
}

// calibrate runs k untraced sets of every workload and prints, per metric,
// the spread between sets next to the bound it has to stay under.
func (p *parent) calibrate(w io.Writer, k int, benchPath string) error {
	if k < 2 {
		return fmt.Errorf("-calibrate needs at least 2 sets, got %d", k)
	}
	bj, err := loadBenchmarkJSON(benchPath)
	if err != nil {
		return err
	}
	cal := calibration{Env: p.env, Sets: k}
	for _, name := range workloadNames() {
		cw := calibrationWorkload{Name: name, Metrics: map[string]calibrationMetric{}}
		for set := 0; set < k; set++ {
			res, err := p.measureUntraced(name)
			if err != nil {
				return err
			}
			if res.OpsFailed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %v", name, res.OpsFailed, res.OpsAttempted, res.Failures)
			}
			for metric, s := range res.EndToEnd {
				cm := cw.Metrics[metric]
				cm.Values = append(cm.Values, s.Value)
				if sp := 100 * s.spread(); sp > cm.WithinPct {
					cm.WithinPct = sp
				}
				cw.Metrics[metric] = cm
			}
		}
		for _, d := range endToEndDefs {
			cm := cw.Metrics[d.Name]
			across := newStat(d.Unit, "median", cm.Values)
			cm.Median, cm.SpreadPct = across.Value, 100*across.spread()
			bound, _ := bj.bound(d.Name)
			cm.BoundPct = 100 * bound
			cw.Metrics[d.Name] = cm
			fmt.Fprintf(w, "%-12s %-12s median %12.4f %-3s spread %5.2f%% (within a set up to %5.2f%%)  bound %.0f%%\n",
				name, d.Name, cm.Median, d.Unit, cm.SpreadPct, cm.WithinPct, cm.BoundPct)
		}
		cal.Workloads = append(cal.Workloads, cw)
	}
	path := filepath.Join(p.outDir, "calibration.json")
	if err := writeJSON(path, &cal); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
