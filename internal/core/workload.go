package core

import (
	"fmt"
	"strings"

	"iochar/internal/workloads"
)

// Workload identifies one benchmark of the study as a typed enum — the four
// paper workloads plus the Join extension — replacing the magic strings the
// framework's early API took. The zero value is invalid; obtain values from
// the constants or ParseWorkload.
type Workload uint8

// The paper's four workloads (Table 3) and the Join extension.
const (
	workloadInvalid Workload = iota
	TS                       // TeraSort: total-order sort, I/O-bound
	AGG                      // Hive Aggregation: group-by revenue, CPU-bound
	KM                       // K-means: iterative clustering
	PR                       // PageRank: power iterations
	Join                     // Hive Join (extension beyond the paper)
)

// workloadTable is where each workload is named: its abbreviation and the
// MapReduce program that runs it.
var workloadTable = [...]struct {
	key     string
	program func() workloads.Workload
}{
	TS:   {"TS", func() workloads.Workload { return workloads.NewTeraSort() }},
	AGG:  {"AGG", func() workloads.Workload { return workloads.NewAggregation() }},
	KM:   {"KM", func() workloads.Workload { return workloads.NewKMeans() }},
	PR:   {"PR", func() workloads.Workload { return workloads.NewPageRank() }},
	Join: {"JOIN", func() workloads.Workload { return workloads.NewJoin() }},
}

// String returns the paper's abbreviation (TS, AGG, KM, PR; JOIN for the
// extension), or "invalid" for values outside the enum.
func (w Workload) String() string {
	if w.Valid() {
		return workloadTable[w].key
	}
	return "invalid"
}

// Valid reports whether w is one of the defined workloads.
func (w Workload) Valid() bool { return w > workloadInvalid && int(w) < len(workloadTable) }

// program returns a fresh instance of the program that runs w, which must be
// Valid.
func (w Workload) program() workloads.Workload { return workloadTable[w].program() }

// MarshalText encodes w as its abbreviation, so JSON-serialized reports and
// cache entries stay human-readable and stable across enum reorderings.
func (w Workload) MarshalText() ([]byte, error) {
	if !w.Valid() {
		return nil, fmt.Errorf("core: cannot encode invalid workload %d", uint8(w))
	}
	return []byte(w.String()), nil
}

// UnmarshalText decodes an abbreviation (any case, full names accepted).
func (w *Workload) UnmarshalText(text []byte) error {
	v, err := ParseWorkload(string(text))
	if err != nil {
		return err
	}
	*w = v
	return nil
}

// ParseWorkload resolves a workload name: the paper abbreviation in any
// case, or the full benchmark name ("terasort", "aggregation", "kmeans",
// "pagerank", "join").
func ParseWorkload(s string) (Workload, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ts", "terasort":
		return TS, nil
	case "agg", "aggregation":
		return AGG, nil
	case "km", "kmeans", "k-means":
		return KM, nil
	case "pr", "pagerank":
		return PR, nil
	case "join":
		return Join, nil
	}
	return workloadInvalid, fmt.Errorf("core: unknown workload %q (want TS, AGG, KM, PR or JOIN)", s)
}
