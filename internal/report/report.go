// Package report renders the characterization results as terminal output:
// grouped horizontal bar charts for figure panels (one bar per
// workload × factor level, as in the paper's figures), sparklines for the
// sampled time series, aligned tables, and CSV export for external
// plotting.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"iochar/internal/core"
	"iochar/internal/stats"
)

// barWidth is the maximum bar length in characters.
const barWidth = 42

// sparkChars are the eight quantization levels of a sparkline.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a fixed-width unicode strip.
func Sparkline(s *stats.Series, width int) string {
	if s == nil || s.Len() == 0 {
		return strings.Repeat(" ", width)
	}
	d := s.Downsample(width)
	max := d.Max()
	if max <= 0 {
		return strings.Repeat(string(sparkChars[0]), d.Len())
	}
	var sb strings.Builder
	for _, p := range d.Points {
		idx := int(p.V / max * float64(len(sparkChars)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkChars) {
			idx = len(sparkChars) - 1
		}
		sb.WriteRune(sparkChars[idx])
	}
	return sb.String()
}

// bar renders a value as a horizontal bar against the panel maximum.
func bar(v, max float64) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * barWidth)
	if n < 0 {
		n = 0
	}
	if n > barWidth {
		n = barWidth
	}
	return strings.Repeat("█", n)
}

// WriteFigure renders a figure: per panel, a grouped bar chart of the mean
// over busy intervals plus a peak marker and a sparkline of the sampled
// series — the information the paper's time-series plots convey, in a form
// that survives a terminal.
func WriteFigure(w io.Writer, fd *core.FigureData) {
	fmt.Fprintf(w, "Figure %d: %s\n", fd.ID, fd.Title)
	if fd.Note != "" {
		fmt.Fprintf(w, "(baseline: %s)\n", fd.Note)
	}
	for i, panel := range fd.Panels {
		fmt.Fprintf(w, "\n(%c) %s [%s]\n", 'a'+i, panel.Title, panel.Unit)
		max := 0.0
		labelW := 0
		for _, r := range panel.Rows {
			if r.Summary > max {
				max = r.Summary
			}
			if len(r.Label) > labelW {
				labelW = len(r.Label)
			}
		}
		for _, r := range panel.Rows {
			fmt.Fprintf(w, "  %-*s %8.1f |%-*s| peak %8.1f  %s\n",
				labelW, r.Label, r.Summary, barWidth, bar(r.Summary, max), r.Peak,
				Sparkline(r.Series, 24))
		}
	}
	fmt.Fprintln(w)
}

// WriteTable renders a table with aligned columns. Tables with ID 0 are
// extensions (not numbered in the paper) and print title-only.
func WriteTable(w io.Writer, td *core.TableData) {
	if td.ID == 0 {
		fmt.Fprintf(w, "%s\n", td.Title)
	} else {
		fmt.Fprintf(w, "Table %d: %s\n", td.ID, td.Title)
	}
	rows := append([][]string{td.Header}, td.Rows...)
	widths := make([]int, len(td.Header))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var sb strings.Builder
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		fmt.Fprintln(w, "  "+sb.String())
		if ri == 0 {
			total := 0
			for _, wd := range widths {
				total += wd + 2
			}
			fmt.Fprintln(w, "  "+strings.Repeat("-", total-2))
		}
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteFigureCSV emits the figure's rows as CSV: panel, label, mean,
// mean_busy, peak, then the downsampled series values.
func WriteFigureCSV(w io.Writer, fd *core.FigureData) {
	fmt.Fprintln(w, "figure,panel,label,mean,mean_busy,peak,series")
	for i, panel := range fd.Panels {
		for _, r := range panel.Rows {
			var vals []string
			for _, p := range r.Series.Points {
				vals = append(vals, fmt.Sprintf("%.3f", p.V))
			}
			fmt.Fprintf(w, "%d,%c,%s,%.4f,%.4f,%.4f,%s\n",
				fd.ID, 'a'+i, r.Label, r.Mean, r.MeanBusy, r.Peak, strings.Join(vals, ";"))
		}
	}
}

// WriteTableCSV emits the table as plain CSV.
func WriteTableCSV(w io.Writer, td *core.TableData) {
	fmt.Fprintln(w, strings.Join(td.Header, ","))
	for _, row := range td.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// JobSummary renders one run's job counters compactly (used by mrrun).
func JobSummary(w io.Writer, rep *core.RunReport) {
	fmt.Fprintf(w, "workload %s (%s, mem=%dG, compress=%v): %d job(s), runtime %v\n",
		rep.Workload, rep.Factors.Slots.Name, rep.Factors.MemoryGB, rep.Factors.Compress,
		len(rep.Jobs), rep.Wall)
	for i, j := range rep.Jobs {
		fmt.Fprintf(w, "  job %d: maps=%d (attempts: %d local, %d remote, %d speculative) reduces=%d  mapOut=%s (disk %s)  shuffle=%s  out=%s  spills=%d/%d\n",
			i, j.MapTasks, j.LocalMaps, j.RemoteMaps, j.SpeculativeAttempts, j.ReduceTasks,
			mb(j.MapOutputBytes), mb(j.CompressedMapOutput), mb(j.ShuffleBytes),
			mb(j.ReduceOutputBytes), j.Spills, j.ReduceSpills)
	}
	fmt.Fprintf(w, "  HDFS : read %s, wrote %s, %d+%d requests\n",
		mb(int64(rep.HDFS.TotalReadBytes)), mb(int64(rep.HDFS.TotalWrittenBytes)),
		rep.HDFS.TotalReads, rep.HDFS.TotalWrites)
	fmt.Fprintf(w, "  MR   : read %s, wrote %s, %d+%d requests\n",
		mb(int64(rep.MR.TotalReadBytes)), mb(int64(rep.MR.TotalWrittenBytes)),
		rep.MR.TotalReads, rep.MR.TotalWrites)
	if rep.CPUUtil != nil && rep.CPUUtil.Len() > 0 {
		fmt.Fprintf(w, "  CPU  : %.0f%% mean / %.0f%% peak cluster utilization\n",
			rep.CPUUtil.Mean(), rep.CPUUtil.Max())
	}
	writeNetwork(w, rep)
	if meta := rep.Groups[core.GroupMasters]; meta != nil {
		nn, jt := rep.NameNode, rep.JobTracker
		fmt.Fprintf(w, "  meta : read %s, wrote %s, %d+%d requests (master-node disks)\n",
			mb(int64(meta.TotalReadBytes)), mb(int64(meta.TotalWrittenBytes)),
			meta.TotalReads, meta.TotalWrites)
		fmt.Fprintf(w, "  NameNode   : %d edit(s) / %s journaled in %d flush(es), %d checkpoint(s) / %s, leases %d granted / %d released / %d recovered\n",
			nn.JournalRecords, mb(int64(nn.JournalBytes)), nn.JournalBatches,
			nn.Checkpoints, mb(int64(nn.CheckpointBytes)),
			nn.LeaseGrants, nn.LeaseReleases, nn.LeaseRecoveries)
		if nn.Restarts > 0 {
			fmt.Fprintf(w, "    restarts : %d restart(s), replayed %d record(s) / %s, safe mode %v, %d client stall(s) / %v stalled\n",
				nn.Restarts, nn.ReplayRecords, mb(int64(nn.ReplayBytes)),
				nn.SafeModeWait, nn.Stalls, nn.StallTime)
		}
		fmt.Fprintf(w, "  JobTracker : %d record(s) / %s journaled in %d flush(es), %d checkpoint(s) / %s\n",
			jt.JournalRecords, mb(int64(jt.JournalBytes)), jt.JournalBatches,
			jt.Checkpoints, mb(int64(jt.CheckpointBytes)))
		if jt.Restarts > 0 {
			fmt.Fprintf(w, "    restarts : %d restart(s), replayed %d record(s) / %s, %d grant stall(s) / %v stalled, %d missed event(s), %d zombie output(s)\n",
				jt.Restarts, jt.ReplayRecords, mb(int64(jt.ReplayBytes)),
				jt.Stalls, jt.StallTime, jt.MissedEvents, jt.ZombieOutputs)
		}
	}
	rs := rep.Recovery
	if len(rep.FaultsInjected) > 0 {
		fmt.Fprintf(w, "  faults injected:\n")
		for _, ev := range rep.FaultsInjected {
			fmt.Fprintf(w, "    %s\n", ev)
		}
		fmt.Fprintf(w, "  HDFS recovery: %d block(s) / %s re-replicated, %d dead DataNode(s), %d failed volume(s), %d lost block(s), %d read failover(s), %d pipeline retries\n",
			rs.ReReplicatedBlocks, mb(int64(rs.ReReplicatedBytes)), rs.DeadDataNodes,
			rs.FailedVolumes, rs.LostBlocks, rs.ReadFailovers, rs.PipelineRetries)
	}
	// A scrubber runs without a fault plan, so its line does not wait for one.
	if rs.ChecksumErrors+rs.ScrubbedBlocks > 0 || rs.CorruptReplicas > 0 {
		fmt.Fprintf(w, "  integrity    : %d checksum error(s), %d corrupt replica(s) repaired, %d replica(s) / %s scrubbed\n",
			rs.ChecksumErrors, rs.CorruptReplicas, rs.ScrubbedBlocks, mb(int64(rs.ScrubbedBytes)))
	}
	if rs.BlockReports > 0 {
		fmt.Fprintf(w, "  rejoin       : %d block report(s), %d replica(s) re-adopted, %d stale purged, %d queued repair(s) cancelled\n",
			rs.BlockReports, rs.ReAdoptedReplicas, rs.StaleReplicasPurged, rs.CancelledRepairs)
	}
	if len(rep.FaultsInjected) > 0 {
		var reexec, retries, failed int64
		for _, j := range rep.Jobs {
			reexec += j.ReExecutedMaps
			retries += j.FetchRetries
			failed += j.FailedFetches
		}
		fmt.Fprintf(w, "  MR recovery  : %d re-executed map(s), %d fetch retries, %d failed fetches\n",
			reexec, retries, failed)
	}
}

// writeNetwork renders the fabric's traffic accounting inside JobSummary:
// aggregate NIC traffic, per-uplink bytes and utilization on multi-rack
// runs, and the retransmission/stall counters network faults leave behind.
func writeNetwork(w io.Writer, rep *core.RunReport) {
	ns := rep.Network
	if ns == nil || len(ns.NICs) == 0 {
		return
	}
	var sent, retrans uint64
	var busiestTx time.Duration
	for _, nic := range ns.NICs {
		sent += nic.BytesSent
		retrans += nic.RetransBytes
		if nic.TxBusy > busiestTx {
			busiestTx = nic.TxBusy
		}
	}
	util := func(busy time.Duration) float64 {
		if rep.Wall <= 0 {
			return 0
		}
		return 100 * float64(busy) / float64(rep.Wall)
	}
	fmt.Fprintf(w, "  net  : %s over %d NIC(s), busiest tx %.0f%% utilized",
		mb(int64(sent)), len(ns.NICs), util(busiestTx))
	if ns.Racks > 1 {
		fmt.Fprintf(w, ", %d rack(s)", ns.Racks)
	}
	fmt.Fprintln(w)
	for _, u := range ns.Uplinks {
		fmt.Fprintf(w, "    uplink rack%02d: up %s (%.0f%% util), down %s (%.0f%% util) @ %s/s\n",
			u.Rack, mb(int64(u.BytesUp)), util(u.UpBusy),
			mb(int64(u.BytesDown)), util(u.DownBusy), mb(u.BPS))
	}
	if retrans > 0 || ns.FailedTransfers > 0 || ns.DroppedChunks > 0 {
		fmt.Fprintf(w, "    faults: %s retransmitted (%d dropped chunk(s)), %d failed transfer(s)\n",
			mb(int64(retrans)), ns.DroppedChunks, ns.FailedTransfers)
	}
	var netFetchStalls int64
	for _, j := range rep.Jobs {
		netFetchStalls += j.NetFetchStalls
	}
	rs := rep.Recovery
	if rs.NetStalls > 0 || netFetchStalls > 0 {
		fmt.Fprintf(w, "    stalls: HDFS clients %d / %v waiting out partitions, shuffle %d net fetch retries\n",
			rs.NetStalls, rs.NetStallTime, netFetchStalls)
	}
}

func mb(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
