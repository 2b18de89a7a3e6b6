package chaos

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

// The layers add up. Each identity below says that the bytes one layer
// reports having issued are the bytes the layer under it received, over
// counters the programs already keep:
//
//  1. a disk's SectorsWritten = its cache's FlushedPages × PageSectors: the
//     page cache is the disk's only writer;
//  2. a disk's SectorsRead = (Misses + ReadaheadPages) × PageSectors + the
//     sectors of its StageNone reads, which only a remount's journal replay
//     issues;
//  3. at the final SyncAll no live machine's unfailed volume holds a dirty
//     page;
//  4. Σ over HDFS files and blocks of block size × credited replicas = Σ
//     bytes of the blk_* files on the unfailed HDFS volumes of the DataNodes
//     alive at the end;
//  5. Σ intermediate-volume localfs BytesWritten = Σ jobs' MapSpillBytes +
//     MapMergeWriteBytes + ReduceRunWriteBytes;
//  6. Σ intermediate-volume localfs BytesRead = Σ jobs' MapMergeReadBytes +
//     ReduceRunReadBytes + ShuffleBytes.
//
// Identity 3 holds at the Inspect instant; the others once the run has
// drained (a master journal write may still be in flight at Inspect). The
// job counters count committed attempts only, as Hadoop's do, so 5 and 6
// are equalities only on runs without a backup or re-executed map attempt
// (and, for reads, without a fetch retry, whose disk read may precede the
// transfer that fails); elsewhere the volumes must carry at least the
// counted bytes, and the gap is logged.

// conservationRun is one run the identities are checked on.
type conservationRun struct {
	name string
	w    core.Workload
	f    core.Factors
	opts core.Options
}

// knownDirtyAtSync lists the runs on which a killed machine still holds
// dirty pages at the final SyncAll, with their count. The page cache of a
// machine a kill-node fault stops keeps flushing (the injector leaves its
// flusher running), and SyncAll skips the dead machine, so the pages reach
// its disks after the run instead of being lost with it. The list may only
// shrink: a run that leaves the list, or a count that moves, fails the test.
var knownDirtyAtSync = map[string]int{
	"AGG-seed1.json": 6,
	"PR-seed3.json":  18,
	"KM-seed4.json":  92,
	"kill-restart":   56,
	"all-kinds":      31,
}

// The fault plans of two pinned runs: the benchmark's ts_faulted (as in
// internal/core's TestLogReproducesLiveViews) and every fault kind at once
// (as in internal/faults' TestAllKindsPinned).
const (
	tsFaultedPlan = "slow-disk@50ms:node=slave-03,disk=mr0,factor=4;" +
		"restart-namenode@80ms:down=40ms;" +
		"restart-datanode@150ms:node=slave-02,down=50ms;" +
		"partition@250ms:rack=2,down=50ms;" +
		"restart-jobtracker@400ms:down=25ms"
	allKindsPlan = "slow-disk@50ms:node=slave-03,disk=mr0,factor=4;" +
		"restart-namenode@80ms:down=40ms;" +
		"drop-shuffle@100ms:until=500ms,prob=0.2;" +
		"fail-disk@120ms:node=slave-04,disk=mr0;" +
		"corrupt-block@130ms:path=/bench/TS/in/part-00000;" +
		"restart-datanode@150ms:node=slave-02,down=50ms;" +
		"slow-link@180ms:rack=1,factor=3;" +
		"drop-link@200ms:node=slave-05,until=300ms,prob=0.3;" +
		"partition@250ms:rack=2,down=50ms;" +
		"kill-datanode@320ms:node=slave-01;" +
		"restart-node@350ms:node=slave-00,down=60ms;" +
		"restart-jobtracker@400ms:down=25ms;" +
		"kill-node@550ms:node=slave-03"
)

// conservationRuns returns the 28 runs: the live-view differential's small
// testbeds (with JOIN in place of its ten-slave TeraSort), every pinned
// chaos schedule under the options the harness judges it with, and the
// all-kinds run.
func conservationRuns(t *testing.T) []conservationRun {
	plan := func(s string) faults.Plan {
		p, err := faults.ParsePlan(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small := core.Options{Scale: 65536, Slaves: 4, MapTaskTarget: 24}
	raw := small
	raw.Scale = 16384
	tiered := small
	tiered.Scale, tiered.Slaves, tiered.IntermediateTier = 16384, 3, disk.ClassSSD
	faulted := core.Options{Scale: 65536, Slaves: 6, MapTaskTarget: 64, Racks: 2, UplinkBPS: 40 << 20,
		MasterRecovery: true, Integrity: true, Audit: true, Faults: plan(tsFaultedPlan)}
	killRestart := small
	killRestart.Faults = plan("kill-node@1s:node=slave-01;restart-node@100ms:node=slave-02,down=50ms")
	allKinds := core.Options{Scale: 65536, Slaves: 6, MapTaskTarget: 64, Seed: 1, Racks: 2, UplinkBPS: 40 << 20,
		Integrity: true, Faults: plan(allKindsPlan)}
	base := core.SlotsRuns[0]
	runs := []conservationRun{
		{"AGG", core.AGG, base, small},
		{"TS", core.TS, base, small},
		{"KM", core.KM, base, small},
		{"PR", core.PR, base, small},
		{"JOIN", core.Join, base, small},
		{"TS-raw", core.TS, core.Factors{Slots: core.Slots1x8, MemoryGB: 16}, raw},
		{"TS-tiered", core.TS, base, tiered},
		{"ts_faulted", core.TS, base, faulted},
		{"kill-restart", core.TS, base, killRestart},
		{"all-kinds", core.TS, base, allKinds},
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSchedule(data)
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.ParseWorkload(s.Workload)
		if err != nil {
			t.Fatal(err)
		}
		p := plan(s.Plan)
		p.Seed = s.PlanSeed
		h := New(Options{Core: s.testbed()})
		runs = append(runs, conservationRun{filepath.Base(path), w, core.SlotsRuns[0], h.checkOptions(p, map[string][]byte{})})
	}
	return runs
}

// nodes returns every machine of the testbed, the master last.
func nodes(cl *cluster.Cluster) []*cluster.Node {
	return append(slices.Clone(cl.Slaves), cl.Master)
}

// checkConservation runs c and reports every identity it breaks, apart from
// the known findings it checks against knownDirtyAtSync.
func checkConservation(t *testing.T, c conservationRun) {
	opts := c.opts
	noneRead := map[*disk.Disk]uint64{} // sectors of StageNone read completions
	opts.TraceAttach = func(_ string, d *disk.Disk) {
		d.Subscribe(func(cp disk.Completion) {
			if cp.Op == disk.Read && cp.Stage == disk.StageNone {
				noneRead[d] += uint64(cp.Count)
			}
		})
	}
	var cl *cluster.Cluster
	var fs *hdfs.FS
	killedDirty, failedDirty := 0, 0
	inspect := opts.Inspect
	opts.Inspect = func(p *sim.Proc, hfs *hdfs.FS, c *cluster.Cluster) {
		cl, fs = c, hfs
		// Identity 3, at the final SyncAll.
		for _, n := range nodes(c) {
			for _, v := range n.Vols {
				switch dirty := v.Cache().DirtyPages(); {
				case dirty == 0:
				case v.Failed():
					failedDirty += dirty // SyncAll skips a failed volume
				case !n.Alive():
					killedDirty += dirty
				default:
					t.Errorf("3: %s holds %d dirty pages after the final SyncAll", v.Disk().P.Name, dirty)
				}
			}
		}
		if inspect != nil {
			inspect(p, hfs, c)
		}
	}
	rep, err := core.RunOne(c.w, c.f, opts)
	if err != nil {
		t.Fatal(err)
	}
	switch want := knownDirtyAtSync[c.name]; {
	case killedDirty == want:
	case killedDirty == 0:
		t.Errorf("3: mended: killed machines hold no dirty page after the final SyncAll; take %s out of knownDirtyAtSync", c.name)
	default:
		t.Errorf("3: killed machines hold %d dirty pages after the final SyncAll; the known findings list %d", killedDirty, want)
	}
	if killedDirty+failedDirty > 0 {
		t.Logf("3: at the final SyncAll, %d dirty pages on killed machines, %d on failed volumes", killedDirty, failedDirty)
	}

	// Identities 1 and 2, on every distinct volume once the run has drained.
	for _, n := range nodes(cl) {
		for _, v := range n.Vols {
			d, cs := v.Disk().Stats(), v.Cache().Stats()
			if want := cs.FlushedPages * pagecache.PageSectors; d.SectorsWritten != want {
				t.Errorf("1: %s wrote %d sectors, its cache flushed %d pages (%d sectors)", v.Disk().P.Name, d.SectorsWritten, cs.FlushedPages, want)
			}
			if want := (cs.Misses+cs.ReadaheadPages)*pagecache.PageSectors + noneRead[v.Disk()]; d.SectorsRead != want {
				t.Errorf("2: %s read %d sectors, its cache missed %d and read ahead %d pages, %d journal-replay sectors",
					v.Disk().P.Name, d.SectorsRead, cs.Misses, cs.ReadaheadPages, noneRead[v.Disk()])
			}
		}
	}

	// Identity 4: the NameNode's credited replicas against the block files
	// of the DataNodes alive at the end. A DataNode the plan kills keeps its
	// files, credited or not, on a machine that may still be up.
	dead := map[string]bool{}
	for _, ev := range opts.Faults.Events {
		if ev.Kind == faults.KillNode || ev.Kind == faults.KillDataNode {
			dead[ev.Node] = true
		}
	}
	var credited, stored int64
	bs := fs.Config().BlockSize
	for _, path := range fs.List("") {
		locs, err := fs.BlockLocations(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, held := range locs {
			credited += min(bs, fs.Size(path)-int64(i)*bs) * int64(len(held))
		}
	}
	for _, s := range cl.Slaves {
		if dead[s.Name] {
			continue
		}
		for _, v := range s.HDFSVols {
			if v.Failed() {
				continue
			}
			for _, name := range v.List() {
				if strings.HasPrefix(name, "blk_") {
					stored += v.Size(name)
				}
			}
		}
	}
	if credited != stored {
		t.Errorf("4: the NameNode credits %d replica bytes, live DataNodes store %d", credited, stored)
	}

	// Identities 5 and 6: what the jobs say they wrote to and read from
	// their intermediate volumes against what those volumes accepted.
	var jobW, jobR, backups, reexec, retries int64
	for _, j := range rep.Jobs {
		jobW += j.MapSpillBytes + j.MapMergeWriteBytes + j.ReduceRunWriteBytes
		jobR += j.MapMergeReadBytes + j.ReduceRunReadBytes + j.ShuffleBytes
		backups += j.SpeculativeAttempts
		reexec += j.ReExecutedMaps
		retries += j.FetchRetries
	}
	var volW, volR int64
	for _, s := range cl.Slaves {
		for _, v := range s.MRVols {
			st := v.Stats()
			volW += int64(st.BytesWritten)
			volR += int64(st.BytesRead)
		}
	}
	judge := func(id, what string, vol, job int64, exact bool) {
		switch {
		case vol == job:
		case exact || vol < job:
			t.Errorf("%s: intermediate volumes %s %d bytes, the job counters %d", id, what, vol, job)
		default:
			t.Logf("%s: the job counters omit %d of %d bytes %s (%.1f %%): %d backups, %d re-executed maps, %d fetch retries",
				id, vol-job, vol, what, 100*float64(vol-job)/float64(vol), backups, reexec, retries)
		}
	}
	judge("5", "written", volW, jobW, backups == 0 && reexec == 0)
	judge("6", "read", volR, jobR, backups == 0 && reexec == 0 && retries == 0)

	// The killed machines' pages are flushed once the run drains.
	for _, n := range nodes(cl) {
		for _, v := range n.Vols {
			if dirty := v.Cache().DirtyPages(); dirty > 0 && !v.Failed() {
				t.Errorf("3: %s still holds %d dirty pages after the run", v.Disk().P.Name, dirty)
			}
		}
	}
}

// TestLayersConserveBytes checks the six identities on every run of
// conservationRuns. A divergence that is not a known finding fails it.
func TestLayersConserveBytes(t *testing.T) {
	for _, c := range conservationRuns(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkConservation(t, c)
		})
	}
}
