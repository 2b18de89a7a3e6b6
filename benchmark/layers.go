package main

import (
	"strconv"

	"iochar/internal/bench"
	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/iostat"
	"iochar/internal/localfs"
	"iochar/internal/netsim"
)

const mib = 1 << 20

// layerAcc gathers the per-layer counters of one traced iteration, read from
// outside through each layer's own Stats. Sums are kept raw so a suite pass
// can add up its cells; ratios and means are derived in metrics.
type layerAcc struct {
	sum   map[string]float64
	cells int // reports folded in (means divide by this)
	hash  uint32
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: map[string]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// cluster reads the storage stack's counters off every volume of the
// testbed. It runs inside the simulation (Inspect hook), after the final
// sync, or after an io_storm pass drains.
func (a *layerAcc) cluster(cl *cluster.Cluster) {
	seen := map[*localfs.FS]bool{}
	vol := func(v *localfs.FS) {
		if seen[v] {
			return
		}
		seen[v] = true
		pc := v.Cache().Stats()
		a.add("pagecache.hits", float64(pc.Hits))
		a.add("pagecache.misses", float64(pc.Misses))
		a.add("pagecache.readahead_pages", float64(pc.ReadaheadPages))
		a.add("pagecache.flushed_pages", float64(pc.FlushedPages))
		a.add("pagecache.evicted_dirty", float64(pc.EvictedDirty))
		a.add("pagecache.throttle_stalls", float64(pc.ThrottleStalls))
		fs := v.Stats()
		a.add("localfs.files_created", float64(fs.FilesCreated))
		a.add("localfs.written_mb", float64(fs.BytesWritten)/mib)
		a.add("localfs.read_mb", float64(fs.BytesRead)/mib)
		a.add("localfs.leaked_sectors", float64(v.LeakedExtents()))
		ds := v.Disk().Stats()
		a.add("disk.merged_reqs", float64(ds.ReadsMerged+ds.WritesMerged))
	}
	for _, s := range cl.Slaves {
		for _, v := range s.HDFSVols {
			vol(v)
		}
		for _, v := range s.MRVols {
			vol(v)
		}
	}
	for _, v := range cl.Master.MetaVols {
		vol(v)
	}
}

// disks reads the two monitored disk groups the way the paper does: from the
// iostat reports, over the monitored window only.
func (a *layerAcc) disks(hdfs, mr *iostat.Report) {
	a.add("disk.hdfs_reqs", float64(hdfs.TotalReads+hdfs.TotalWrites))
	a.add("disk.mr_reqs", float64(mr.TotalReads+mr.TotalWrites))
	a.add("disk.hdfs_mb", float64(hdfs.TotalReadBytes+hdfs.TotalWrittenBytes)/mib)
	a.add("disk.mr_mb", float64(mr.TotalReadBytes+mr.TotalWrittenBytes)/mib)
	a.add("disk.hdfs_await_ms", hdfs.AwaitMs.MeanNonzero())
	a.add("disk.mr_await_ms", mr.AwaitMs.MeanNonzero())
	a.add("disk.hdfs_avgrq_sectors", hdfs.AvgrqSz.MeanNonzero())
	a.add("disk.mr_avgrq_sectors", mr.AvgrqSz.MeanNonzero())
	a.add("disk.mr_util_pct", mr.Util.Mean())
	a.add("iostat.samples", float64(hdfs.Util.Len()+mr.Util.Len()))
	if hdfs.Hists != nil {
		a.add("iostat.hist_requests", float64(hdfs.Hists.Requests))
	}
	if mr.Hists != nil {
		a.add("iostat.hist_requests", float64(mr.Hists.Requests))
	}
}

func (a *layerAcc) network(st *netsim.Stats) {
	for _, n := range st.NICs {
		a.add("netsim.sent_mb", float64(n.BytesSent)/mib)
		a.add("netsim.tx_busy_s", n.TxBusy.Seconds())
		a.add("netsim.retrans_mb", float64(n.RetransBytes)/mib)
	}
	for _, u := range st.Uplinks {
		a.add("netsim.uplink_mb", float64(u.BytesUp)/mib)
	}
	a.add("netsim.failed_transfers", float64(st.FailedTransfers))
}

// report folds one experiment cell's RunReport in.
func (a *layerAcc) report(rep *core.RunReport) {
	a.cells++
	a.disks(rep.HDFS, rep.MR)
	a.network(rep.Network)
	a.add("sim.events", float64(rep.Events))

	a.add("hdfs.rereplicated_blocks", float64(rep.Recovery.ReReplicatedBlocks))
	a.add("hdfs.read_failovers", float64(rep.Recovery.ReadFailovers))
	a.add("hdfs.net_stalls", float64(rep.Recovery.NetStalls))
	a.add("hdfs.nn_journal_mb", float64(rep.NameNode.JournalBytes)/mib)
	a.add("hdfs.nn_journal_batches", float64(rep.NameNode.JournalBatches))
	a.add("hdfs.nn_checkpoints", float64(rep.NameNode.Checkpoints))
	a.add("hdfs.nn_replay_mb", float64(rep.NameNode.ReplayBytes)/mib)
	a.add("hdfs.nn_client_stall_s", rep.NameNode.StallTime.Seconds())
	a.add("mapred.jt_journal_mb", float64(rep.JobTracker.JournalBytes)/mib)
	a.add("mapred.jt_grant_stall_s", rep.JobTracker.StallTime.Seconds())

	for _, j := range rep.Jobs {
		a.add("mapred.jobs", 1)
		a.add("mapred.map_tasks", float64(j.MapTasks))
		a.add("mapred.reduce_tasks", float64(j.ReduceTasks))
		a.add("mapred.local_maps", float64(j.LocalMaps))
		a.add("mapred.remote_maps", float64(j.RemoteMaps))
		a.add("mapred.spills", float64(j.Spills))
		a.add("mapred.map_output_mb", float64(j.MapOutputBytes)/mib)
		a.add("mapred.spill_write_mb", float64(j.MapSpillBytes)/mib)
		a.add("mapred.merge_read_mb", float64(j.MapMergeReadBytes)/mib)
		a.add("mapred.shuffle_mb", float64(j.ShuffleBytes)/mib)
		a.add("mapred.reexecuted_maps", float64(j.ReExecutedMaps))
		a.add("mapred.fetch_retries", float64(j.FetchRetries))
		a.add("mapred.virt_map_phase_s", (j.MapsDone - j.Start).Seconds())
		a.add("mapred.virt_reduce_tail_s", (j.End - j.MapsDone).Seconds())
		a.add("workloads.map_records", float64(j.MapInputRecords))
		a.add("workloads.reduce_records", float64(j.ReduceInputRecords))
	}

	a.add("faults.fired", float64(len(rep.FaultsInjected)))
	a.add("core.virt_wall_s", rep.Wall.Seconds())
	a.add("core.virt_cpu_util_pct", rep.CPUUtil.Mean())
	if rep.Audit != nil {
		a.add("hdfs.blocks", float64(rep.Audit.HDFSBlocks))
		a.add("core.audit_violations", float64(len(rep.Audit.Violations())))
	}
	a.hash ^= hash32(bench.Fingerprint(rep))
}

// codec folds the timing wrapper's counts in.
func (a *layerAcc) codec(st *codecStats) {
	a.add("compress.compress_calls", float64(st.compressCalls))
	a.add("compress.compress_in_mb", float64(st.compressIn)/mib)
	a.add("compress.compress_out_mb", float64(st.compressOut)/mib)
	a.add("compress.compress_host_s", st.compressHost.Seconds())
	a.add("compress.decompress_calls", float64(st.decompressCalls))
	a.add("compress.decompress_out_mb", float64(st.decompressOut)/mib)
	a.add("compress.decompress_host_s", st.decompressHost.Seconds())
}

// hash32 is the first 32 bits of a hex outcome fingerprint.
func hash32(hexFingerprint string) uint32 {
	if len(hexFingerprint) > 8 {
		hexFingerprint = hexFingerprint[:8]
	}
	v, _ := strconv.ParseUint(hexFingerprint, 16, 32)
	return uint32(v)
}

// metrics derives the declared per-layer counters from the sums. Names the
// accumulator never saw read zero: a workload that bypasses a layer reports
// that layer's counters as 0, which is the separation the workloads exist
// to show.
func (a *layerAcc) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerDefs {
		m[d.Name] = a.sum[d.Name]
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// Means over the cells of a suite pass (one cell otherwise).
	if a.cells > 1 {
		for _, name := range []string{
			"disk.hdfs_await_ms", "disk.mr_await_ms", "disk.hdfs_avgrq_sectors",
			"disk.mr_avgrq_sectors", "disk.mr_util_pct", "core.virt_cpu_util_pct",
		} {
			m[name] /= float64(a.cells)
		}
	}
	m["pagecache.hit_ratio"] = ratio(a.sum["pagecache.hits"], a.sum["pagecache.hits"]+a.sum["pagecache.misses"])
	m["mapred.local_map_ratio"] = ratio(a.sum["mapred.local_maps"], a.sum["mapred.local_maps"]+a.sum["mapred.remote_maps"])
	m["compress.ratio"] = ratio(a.sum["compress.compress_in_mb"], a.sum["compress.compress_out_mb"])
	m["core.outcome_hash32"] = float64(a.hash)
	return m
}

// equalExact reports the first simulation-derived counter on which two
// traced iterations of one child disagree.
func equalExact(x, y map[string]float64) (string, bool) {
	for _, d := range perLayerDefs {
		if d.exact && x[d.Name] != y[d.Name] {
			return d.Name, false
		}
	}
	return "", true
}
