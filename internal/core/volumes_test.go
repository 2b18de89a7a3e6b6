package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/trace"
)

// volOpts is the testbed the one-volume-list tests run on: four slaves of
// six data disks each, a TeraSort of a few seconds' host time.
var volOpts = Options{Scale: 65536, Slaves: 4, MapTaskTarget: 24}

// attachRun runs TS with a TraceAttach hook that records every call and
// subscribes one counting observer per call, and returns the device names in
// call order, the completions the observers saw, and the requests the
// distinct attached disks completed.
func attachRun(t *testing.T, opts Options) (devs []string, observed, requests uint64) {
	t.Helper()
	var disks []*disk.Disk
	opts.TraceAttach = func(dev string, d *disk.Disk) {
		devs = append(devs, dev)
		if !slices.Contains(disks, d) {
			disks = append(disks, d)
		}
		d.Subscribe(func(disk.Completion) { observed++ })
	}
	if _, err := RunOne(TS, SlotsRuns[0], opts); err != nil {
		t.Fatal(err)
	}
	for _, d := range disks {
		s := d.Stats()
		requests += s.ReadsCompleted + s.WritesCompleted
	}
	return devs, observed, requests
}

// Regression: on a pooled layout (SharedDataDisks) runOne called TraceAttach
// once from the HDFS list and once from the MR list for each disk, so every
// trace observer was attached twice: 48 calls for 24 disks, and 2,136
// completions observed for 1,068 requests.
func TestSharedLayoutAttachesEachDiskOnce(t *testing.T) {
	opts := volOpts
	opts.SharedDataDisks = true
	devs, observed, requests := attachRun(t, opts)
	var distinct []string
	for _, dev := range devs {
		if !slices.Contains(distinct, dev) {
			distinct = append(distinct, dev)
		}
	}
	if len(devs) != 24 || len(distinct) != 24 {
		t.Errorf("TraceAttach called %d times for %d devices, want 24 for 24", len(devs), len(distinct))
	}
	if observed != requests || requests == 0 {
		t.Errorf("observers saw %d completions of %d requests, want each once", observed, requests)
	}
}

// Regression: a restart-node on a pooled layout remounted each volume once
// per role list it sat on, so every pooled disk replayed its metadata
// journal twice (a sector-0 read with no stage, after the outage ends).
func TestSharedLayoutRestartReplaysEachVolumeOnce(t *testing.T) {
	opts := volOpts
	opts.SharedDataDisks = true
	plan, err := faults.ParsePlan("restart-node@30ms:node=slave-01,down=20ms")
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = plan
	replays := map[string]int{}
	var watched []*disk.Disk
	opts.TraceAttach = func(dev string, d *disk.Disk) {
		if !strings.HasPrefix(dev, "slave-01.") || slices.Contains(watched, d) {
			return
		}
		watched = append(watched, d)
		d.Subscribe(func(c disk.Completion) {
			if c.Op == disk.Read && c.Sector == 0 && c.Stage == disk.StageNone && c.Arrived >= 50*time.Millisecond {
				replays[dev]++
			}
		})
	}
	if _, err := RunOne(TS, SlotsRuns[0], opts); err != nil {
		t.Fatal(err)
	}
	if len(watched) != 6 {
		t.Fatalf("watched %d pooled disks on slave-01, want 6", len(watched))
	}
	for i := range 6 {
		if dev := fmt.Sprintf("slave-01.data%d", i); replays[dev] != 1 {
			t.Errorf("%s replayed its journal %d times, want once", dev, replays[dev])
		}
	}
}

// The dedicated layout's attach order and trace are pinned to what the
// role-list loops produced before every loop read Node.Vols: each slave's
// three HDFS disks, then its three MR disks, and the same records.
func TestTraceAttachOrderPinned(t *testing.T) {
	var devs []string
	sink := trace.NewStreamCollector(io.Discard)
	opts := volOpts
	opts.TraceAttach = func(dev string, d *disk.Disk) {
		devs = append(devs, dev)
		sink.Attach(d, dev)
	}
	if _, err := RunOne(TS, SlotsRuns[0], opts); err != nil {
		t.Fatal(err)
	}
	var want []string
	for s := range 4 {
		for _, role := range []string{"hdfs", "mr"} {
			for i := range 3 {
				want = append(want, fmt.Sprintf("slave-%02d.%s%d", s, role, i))
			}
		}
	}
	if !slices.Equal(devs, want) {
		t.Errorf("attach order\n got  %v\n want %v", devs, want)
	}
	if sink.Len() != 1488 {
		t.Errorf("trace records = %d, want 1488", sink.Len())
	}
}

// Regression: TraceAttach reached the slaves' disks only, so under master
// recovery the NameNode's and JobTracker's journal I/O (stage meta) was in
// no trace and no physical table, though iostat's masters group counted it.
// The master's metadata disks now follow the slaves', and every completion
// on them is one meta record.
func TestTraceAttachReachesMasterDisks(t *testing.T) {
	var devs []string
	var buf bytes.Buffer
	sink := trace.NewStreamCollector(&buf)
	var masters []*disk.Disk
	opts := volOpts
	opts.MasterRecovery = true
	opts.TraceAttach = func(dev string, d *disk.Disk) {
		devs = append(devs, dev)
		sink.Attach(d, dev)
		if strings.HasPrefix(dev, "master.") {
			masters = append(masters, d)
		}
	}
	if _, err := RunOne(TS, SlotsRuns[0], opts); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 26 || !slices.Equal(devs[24:], []string{"master.meta0", "master.meta1"}) {
		t.Fatalf("attached %v, want the 24 slave disks then master.meta0 and master.meta1", devs)
	}
	var completions uint64
	for _, d := range masters {
		s := d.Stats()
		completions += s.ReadsCompleted + s.WritesCompleted
	}
	recs, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var meta, onMasters uint64
	for _, r := range recs {
		if r.Stage == disk.StageMeta {
			meta++
		}
		if strings.HasPrefix(r.Dev, "master.") {
			onMasters++
		}
	}
	if completions == 0 || meta != completions || onMasters != completions {
		t.Errorf("%d meta records and %d on master disks for %d master-disk completions, want one meta record each", meta, onMasters, completions)
	}
}
