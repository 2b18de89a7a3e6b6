package trace

import (
	"bufio"
	"io"
	"os"
	"strconv"
	"strings"

	"iochar/internal/disk"
)

// StreamCollector encodes completed requests to a writer, holding only a
// small reusable buffer — memory use is independent of trace length. It
// writes CSV in WriteCSV's layout, or NDJSON, one JSON object per line, for
// downstream tools that prefer it. The simulation is serialized, so no
// locking is needed; writer errors are sticky and surface from Flush and
// Close rather than interrupting the caller.
type StreamCollector struct {
	bw     *bufio.Writer
	file   io.Closer // the file Create opened; nil for NewStreamCollector
	ndjson bool
	buf    []byte // reusable per-record encode buffer
	n      int
	err    error
}

// NewStreamCollector returns a CSV stream sink writing to w, header
// included.
func NewStreamCollector(w io.Writer) *StreamCollector {
	return newStreamCollector(w, false)
}

// Create creates the file at path and returns a sink streaming to it: NDJSON
// when the name ends in ".ndjson", CSV otherwise. Close flushes the sink and
// closes the file.
func Create(path string) (*StreamCollector, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := newStreamCollector(f, strings.HasSuffix(path, ".ndjson"))
	s.file = f
	return s, nil
}

func newStreamCollector(w io.Writer, ndjson bool) *StreamCollector {
	s := &StreamCollector{bw: bufio.NewWriter(w), ndjson: ndjson, buf: make([]byte, 0, 128)}
	if !ndjson {
		_, s.err = s.bw.WriteString(csvHeader + "\n")
	}
	return s
}

// Attach subscribes the sink to a disk under the given device name, to
// encode each request as it completes.
func (s *StreamCollector) Attach(d *disk.Disk, dev string) {
	d.Subscribe(func(c disk.Completion) { s.Record(dev, c) })
}

// Len returns the number of records encoded so far.
func (s *StreamCollector) Len() int { return s.n }

// Flush drains the internal writer buffer to the underlying writer.
func (s *StreamCollector) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close flushes the sink and closes the file Create opened. A
// NewStreamCollector's writer, if it needs closing, is the caller's to close.
func (s *StreamCollector) Close() error {
	err := s.Flush()
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Record encodes one completed request under the given device name.
func (s *StreamCollector) Record(dev string, c disk.Completion) {
	if s.err != nil {
		return
	}
	op := byte('R')
	if c.Op == disk.Write {
		op = 'W'
	}
	b := s.buf[:0]
	if !s.ndjson {
		b = append(b, dev...)
		b = append(b, ',', op, ',')
		b = strconv.AppendInt(b, c.Sector, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.Count), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.Arrived), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.Done), 10)
		b = append(b, ',')
		b = append(b, c.Stage.String()...)
		b = append(b, '\n')
	} else {
		b = append(b, `{"dev":`...)
		b = strconv.AppendQuote(b, dev)
		b = append(b, `,"op":"`...)
		b = append(b, op, '"')
		b = append(b, `,"sector":`...)
		b = strconv.AppendInt(b, c.Sector, 10)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(c.Count), 10)
		b = append(b, `,"arrived_ns":`...)
		b = strconv.AppendInt(b, int64(c.Arrived), 10)
		b = append(b, `,"done_ns":`...)
		b = strconv.AppendInt(b, int64(c.Done), 10)
		b = append(b, `,"stage":`...)
		b = strconv.AppendQuote(b, c.Stage.String())
		b = append(b, '}', '\n')
	}
	s.buf = b
	s.n++
	_, s.err = s.bw.Write(b)
}
