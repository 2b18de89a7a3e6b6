// Package iochar holds the repository-wide tests of the reproduction of
// "I/O Characterization of Big Data Workloads in Data Centers": the API
// census, the goldens over every workload and the rendered -all stream, the
// executor byte-identity test, the storage-tier tests and the paper-scale
// benchmark. The simulator lives under internal/ (core runs cells and
// builds figures, report renders them); cmd/iochar and cmd/mrrun are its
// programs.
package iochar

import (
	"bytes"
	"strings"
	"testing"

	"iochar/internal/core"
	"iochar/internal/report"
)

// quickOpts keeps these tests fast; the heavyweight shape assertions live
// in internal/core's tests.
var quickOpts = core.Options{Scale: 65536, Slaves: 4, MapTaskTarget: 24}

func TestRunOne(t *testing.T) {
	rep, err := core.RunOne(core.AGG, core.Factors{Slots: core.Slots1x8, MemoryGB: 32}, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != core.AGG || rep.Wall <= 0 {
		t.Errorf("unexpected report: %s %v", rep.Workload, rep.Wall)
	}
	var buf bytes.Buffer
	report.JobSummary(&buf, rep)
	if !strings.Contains(buf.String(), "workload AGG") {
		t.Errorf("summary missing workload line:\n%s", buf.String())
	}
}

func TestRunOneInvalidWorkload(t *testing.T) {
	if _, err := core.RunOne(core.Workload(0), core.Factors{Slots: core.Slots1x8, MemoryGB: 16}, quickOpts); err == nil {
		t.Error("want error")
	}
	if _, err := core.ParseWorkload("XX"); err == nil {
		t.Error("want error from ParseWorkload")
	}
}

func TestFiguresAndTablesLists(t *testing.T) {
	if got := core.Figures(); len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Errorf("Figures() = %v", got)
	}
	if got := core.Tables(); len(got) != 3 || got[0] != 5 {
		t.Errorf("Tables() = %v", got)
	}
}

func TestRenderFigureAndCSV(t *testing.T) {
	s := core.NewSuite(quickOpts)
	fd, err := s.Figure(12) // the compression family, MapReduce disks only
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.WriteFigure(&buf, fd)
	out := buf.String()
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "TS_on") {
		t.Errorf("figure rendering incomplete:\n%s", out)
	}
	buf.Reset()
	report.WriteFigureCSV(&buf, fd)
	if !strings.HasPrefix(buf.String(), "figure,panel,label") {
		t.Error("CSV header missing")
	}
	// Cells must be shared: figure 12 and figure 3 use the same runs.
	n := s.CachedRuns()
	if _, err := s.Figure(3); err != nil {
		t.Fatal(err)
	}
	if s.CachedRuns() != n {
		t.Errorf("figure 3 re-ran cells: %d -> %d", n, s.CachedRuns())
	}
}

func TestRenderTableAndCSV(t *testing.T) {
	s := core.NewSuite(quickOpts)
	td, err := s.Table(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.WriteTable(&buf, td)
	if !strings.Contains(buf.String(), "Peak HDFS Disk Read Bandwidth") {
		t.Errorf("table rendering incomplete:\n%s", buf.String())
	}
	buf.Reset()
	report.WriteTableCSV(&buf, td)
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 5 {
		t.Errorf("table CSV rows:\n%s", buf.String())
	}
}

func TestRenderErrors(t *testing.T) {
	s := core.NewSuite(quickOpts)
	if _, err := s.Figure(99); err == nil {
		t.Error("want error for figure 99")
	}
	if _, err := s.Table(1); err == nil {
		t.Error("want error for table 1 (configuration table)")
	}
}
