package iochar

import (
	"bytes"
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"iochar/internal/core"
	"iochar/internal/report"
)

// goldenOpts is deliberately tiny: the golden test runs the full 20-cell
// matrix three times (sequential, parallel, warm cache), so each cell must
// be cheap. Byte-identity does not depend on scale.
var goldenOpts = core.Options{Scale: 262144, Slaves: 3, MapTaskTarget: 8}

// renderAll regenerates every figure and table into one buffer — the exact
// byte stream `iochar -all` writes to stdout, by the loop it runs.
func renderAll(t *testing.T, s *core.Suite) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range core.Figures() {
		fd, err := s.Figure(n)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		report.WriteFigure(&buf, fd)
	}
	for _, n := range core.Tables() {
		td, err := s.Table(n)
		if err != nil {
			t.Fatalf("table %d: %v", n, err)
		}
		report.WriteTable(&buf, td)
	}
	return buf.Bytes()
}

// TestAllOutputByteIdenticalAcrossExecutors pins the tentpole acceptance
// criterion: -all output is byte-for-byte identical whether cells are run
// sequentially, fanned out across a worker pool, or served entirely from a
// warm persistent cache.
func TestAllOutputByteIdenticalAcrossExecutors(t *testing.T) {
	ctx := context.Background()
	cells := len(core.MatrixCells())
	dir := t.TempDir()

	seq := core.NewSuite(goldenOpts)
	seqOut := renderAll(t, seq)
	if len(seqOut) == 0 {
		t.Fatal("sequential render produced no output")
	}

	var parExec, parDisk atomic.Int64
	par := core.NewSuite(goldenOpts,
		core.WithParallelism(4),
		core.WithCacheDir(dir),
		core.WithProgress(func(ev core.ProgressEvent) {
			switch ev.Source {
			case core.SourceExecuted:
				parExec.Add(1)
			case core.SourceDisk:
				parDisk.Add(1)
			}
		}))
	if err := par.RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	parOut := renderAll(t, par)
	if got := parExec.Load(); got != int64(cells) {
		t.Errorf("cold parallel run executed %d cells, want %d", got, cells)
	}
	if got := parDisk.Load(); got != 0 {
		t.Errorf("cold parallel run hit disk cache %d times, want 0", got)
	}
	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("parallel -all output differs from sequential:\nseq %d bytes, parallel %d bytes\n%s",
			len(seqOut), len(parOut), firstDiff(seqOut, parOut))
	}

	var warmExec, warmDisk atomic.Int64
	warm := core.NewSuite(goldenOpts,
		core.WithParallelism(4),
		core.WithCacheDir(dir),
		core.WithProgress(func(ev core.ProgressEvent) {
			switch ev.Source {
			case core.SourceExecuted:
				warmExec.Add(1)
			case core.SourceDisk:
				warmDisk.Add(1)
			}
		}))
	if err := warm.RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	warmOut := renderAll(t, warm)
	if got := warmExec.Load(); got != 0 {
		t.Errorf("warm run executed %d cells, want 0 (all from cache)", got)
	}
	if got := warmDisk.Load(); got != int64(cells) {
		t.Errorf("warm run served %d cells from disk, want %d", got, cells)
	}
	if !bytes.Equal(seqOut, warmOut) {
		t.Errorf("warm-cache -all output differs from sequential:\nseq %d bytes, warm %d bytes\n%s",
			len(seqOut), len(warmOut), firstDiff(seqOut, warmOut))
	}
}

// firstDiff locates the first divergent line for a readable failure message.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return "first diff at line " + strconv.Itoa(i+1) + ":\n  a: " + string(la[i]) + "\n  b: " + string(lb[i])
		}
	}
	return "one output is a prefix of the other"
}
