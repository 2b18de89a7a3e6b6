package core

import (
	"slices"

	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/trace"
)

// DiskLog is a run's record of its disks' completed requests: RunOne
// subscribes it to each disk it attaches (the slaves' volumes, then
// master.meta0/1 when the master layers run), and it keeps every completion
// with its device, 64 bytes each, to the end of the run. The per-request
// views are folds of it (DESIGN.md, "Observer windows"): each group's Hists
// over the entries delivered before the monitor stopped, the physical
// per-stage table and the -trace-out records over all of them.
type DiskLog struct {
	Devs    []string   // device names, in attach order
	Entries []LogEntry // every completion, in delivery order
}

// LogEntry is one completion and its device's index in DiskLog.Devs.
type LogEntry struct {
	disk.Completion
	Dev int
}

// attach subscribes the log to d under its device name, then calls hook,
// the run's TraceAttach, when it is set.
func (l *DiskLog) attach(d *disk.Disk, hook func(dev string, d *disk.Disk)) {
	dev := len(l.Devs)
	l.Devs = append(l.Devs, d.P.Name)
	d.Subscribe(func(c disk.Completion) { l.Entries = append(l.Entries, LogEntry{c, dev}) })
	if hook != nil {
		hook(d.P.Name, d)
	}
}

// hists folds the first n entries that landed on disks into one group's
// distributions.
func (l *DiskLog) hists(disks []*disk.Disk, n int) *iostat.Hists {
	in := make([]bool, len(l.Devs))
	for _, d := range disks {
		in[slices.Index(l.Devs, d.P.Name)] = true
	}
	h := iostat.NewHists()
	for _, e := range l.Entries[:n] {
		if in[e.Dev] {
			h.Observe(e.Completion)
		}
	}
	return h
}

// Physical folds the whole log into device-level per-stage totals.
func (l *DiskLog) Physical() *PhysicalAttribution {
	pa := &PhysicalAttribution{}
	for _, e := range l.Entries {
		bytes := int64(e.Count) * disk.SectorSize
		if e.Op == disk.Read {
			pa.Reads[e.Stage]++
			pa.ReadBytes[e.Stage] += bytes
		} else {
			pa.Writes[e.Stage]++
			pa.WriteBytes[e.Stage] += bytes
		}
	}
	return pa
}

// WriteTrace encodes every entry to s in delivery order, under its device
// name with prefix prepended.
func (l *DiskLog) WriteTrace(s *trace.StreamCollector, prefix string) {
	names := make([]string, len(l.Devs))
	for i, dev := range l.Devs {
		names[i] = prefix + dev
	}
	for _, e := range l.Entries {
		s.Record(names[e.Dev], e.Completion)
	}
}
