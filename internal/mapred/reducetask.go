package mapred

import (
	"fmt"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// reduceTask executes one reduce attempt on a node: shuffle (parallel
// fetchers pulling this partition's segment from every map output), merge
// (in-memory with disk spills when the shuffle buffer overflows), the user
// reduce function, and HDFS output.
func (rt *Runtime) reduceTask(p *sim.Proc, job *Job, js *jobState, part int, node *cluster.Node) {
	cfg := rt.cfg
	inc := node.Incarnation()
	// zombie reports whether this attempt's machine died under it — including
	// a crash-and-restart, which Alive alone cannot see. A zombie's on-disk
	// shuffle runs were truncated by the crash and must not be merged.
	zombie := func() bool {
		return js.faulty && (!node.Alive() || node.Incarnation() != inc)
	}
	type diskRun struct {
		vol  *localfs.FS
		file *localfs.File
		name string
		clen int64
		kept keptRun // the merged run, for the final merge
		own  run     // see segment.own
	}
	var (
		memRuns   []run
		memOwn    []run // memRuns[i]'s map output array (segment.own)
		memBytes  int64
		diskRuns  []diskRun
		runSeq    int
		shuffled  int64
		inRecords int64
		runWrite  int64
		runRead   int64
	)
	// spillRuns may be entered by several fetcher processes; the run index
	// and buffered-runs snapshot are taken before any blocking operation so
	// concurrent spills work on disjoint state and distinct file names.
	spillRuns := func(sp *sim.Proc) {
		idx := runSeq
		runSeq++
		runs, owns := memRuns, memOwn
		memRuns, memOwn = nil, nil
		memBytes = 0
		merged, lone := rt.mergeRuns(runs)
		node.Compute(sp, time.Duration(mergeNsPerByte*float64(len(merged))))
		enc := cfg.Codec.Compress(merged)
		node.Compute(sp, cfg.Codec.CompressCost(len(merged)))
		if zombie() {
			if lone < 0 {
				rt.runs.put(merged)
			}
			return // the machine died under the merge; its runs die with it
		}
		vol := node.NextMRVol()
		name := fmt.Sprintf("r_%06d.run%d", part, idx)
		f := vol.Create(name)
		f.SetStage(disk.StageSpill)
		dr := diskRun{vol: vol, file: f, name: name, clen: int64(len(enc))}
		switch dr.own = appendRun(sp, f, merged, enc); {
		case dr.own == nil:
			dr.kept = keptRun{enc, merged}
		case lone >= 0: // the file holds the fetched segment's array
			dr.own, owns[lone] = owns[lone], nil
		}
		rt.giveBack(owns...)
		runWrite += int64(len(enc))
		diskRuns = append(diskRuns, dr)
		js.counters.ReduceSpills++
	}

	// Fetch queue: map task indices become available as maps finish. The
	// fetchState is shared by this attempt's fetchers.
	st := &fetchState{}
	if js.faulty {
		st.got = make([]bool, js.totalMaps)
	}
	ingest := func(fp *sim.Proc, enc []byte, seg segment) {
		if zombie() {
			return // attempt is dead; don't touch the node's volumes
		}
		raw := cfg.Codec.Decompress(enc)
		node.Compute(fp, cfg.Codec.DecompressCost(len(raw)))
		memRuns, memOwn = append(memRuns, raw), append(memOwn, seg.own)
		memBytes += int64(len(raw))
		shuffled += seg.clen
		inRecords += seg.records
		if memBytes > cfg.ShuffleBufBytes {
			spillRuns(fp)
		}
	}
	fetchOne := func(fp *sim.Proc, out *mapOutput) {
		if js.faulty {
			rt.fetchOneFaulty(fp, js, st, out, node, part, ingest)
			return
		}
		seg := out.segs[part]
		if seg.clen == 0 {
			return
		}
		// nextOutput hands this (map, partition) segment to one fetcher once
		// and a healthy job never re-runs a reduce, so this is its last read:
		// the map output file lets the bytes go, and they live only until the
		// next spillRuns has merged them into this reducer's own run (or the
		// final merge has read them); then seg.own goes back to rt.runs.
		enc := out.file.ReadOnce(fp, seg.off, seg.clen) // map-side disk read
		rt.net.Transfer(fp, out.node.Name, node.Name, seg.clen)
		ingest(fp, enc, seg)
	}
	var fetchers []*sim.Handle
	for i := 0; i < shuffleParallel; i++ {
		fetchers = append(fetchers, rt.env.Go(fmt.Sprintf("fetch-r%d-%d", part, i), func(fp *sim.Proc) {
			for {
				if zombie() {
					return // zombie attempt; the partition will be reassigned
				}
				out := js.nextOutput(fp, st)
				if out == nil {
					return
				}
				fetchOne(fp, out)
			}
		}))
	}
	for _, h := range fetchers {
		h.Wait(p)
	}
	abort := func() {
		for _, dr := range diskRuns {
			_ = dr.vol.Delete(dr.name)
		}
	}
	if zombie() || (js.faulty && (js.failed != nil || js.redOwner[part] != node.Name)) {
		abort()
		return
	}

	// Final merge: disk runs are read back and joined with what remains in
	// memory. The merge streams into the reduce loop below and no merged run
	// is built; its cost is charged here, on the bytes it will move.
	runs := memRuns
	for _, dr := range diskRuns {
		dr.file.SetStage(disk.StageMerge)
		enc := dr.file.ReadAt(p, 0, dr.clen)
		if zombie() {
			abort() // the node bounced while the read slept; enc is truncated
			return
		}
		runRead += dr.clen
		raw := decodeRun(cfg.Codec, enc, dr.kept)
		node.Compute(p, cfg.Codec.DecompressCost(len(raw)))
		runs = append(runs, raw)
	}
	merge := newMerger(runs)
	node.Compute(p, time.Duration(mergeNsPerByte*float64(merge.total)))

	// Reduce and write output to HDFS with the job's replication factor.
	if zombie() || (js.faulty && js.redOwner[part] != node.Name) {
		abort() // re-check after the merge: creating the part file now would
		return  // clobber a reassigned attempt's output
	}
	w := rt.fs.CreateWith(fmt.Sprintf("%s/part-r-%05d", job.Output, part), node.Name, job.OutputReplication)
	var outRecords, outBytes int64
	var cpu time.Duration
	var werr error
	// kvBuf is reused across output records; Write copies it into the HDFS
	// client buffer before any pipeline flush can yield the process.
	var kvBuf []byte
	emit := func(k, v []byte) {
		outRecords++
		outBytes += int64(len(k)+len(v)) + 1
		if werr == nil {
			kvBuf = AppendKV(kvBuf[:0], k, v)
			werr = w.Write(p, kvBuf)
		}
	}
	merge.groups(func(key []byte, values [][]byte) {
		var vbytes int64
		for _, v := range values {
			vbytes += int64(len(v))
		}
		cpu += time.Duration(job.Costs.ReduceNsPerRecord*float64(len(values)) + job.Costs.ReduceNsPerByte*float64(vbytes))
		if cpu > time.Millisecond {
			node.Compute(p, cpu)
			cpu = 0
		}
		job.Reducer.Reduce(key, values, emit)
	})
	for _, dr := range diskRuns {
		rt.runs.put(dr.kept.raw)
	}
	node.Compute(p, cpu)
	if werr == nil {
		werr = w.Close(p)
	}
	if werr != nil {
		abort()
		if !js.faulty {
			panic(werr) // a healthy run cannot fail an HDFS write
		}
		if !zombie() {
			// Live node, dead filesystem: output genuinely cannot be stored.
			// (A zombie's write failure is its own crash, not the data's; the
			// partition re-runs elsewhere.)
			js.fail(&JobError{Job: job.Name, Reason: fmt.Sprintf("reduce %d: cannot write output", part), Err: werr})
		}
		return
	}

	// Intermediate hygiene: local shuffle runs die here.
	for _, dr := range diskRuns {
		if err := dr.vol.Delete(dr.name); err != nil {
			if zombie() {
				continue // the crash already removed this run
			}
			panic(err)
		}
		rt.giveBack(dr.own)
	}
	rt.giveBack(memOwn...)
	if zombie() || !js.finishReduce(part, node.Name) {
		return // zombie attempt lost the partition; discard its stats
	}

	js.counters.ShuffleBytes += shuffled
	js.counters.ReduceInputRecords += inRecords
	js.counters.ReduceOutputRecords += outRecords
	js.counters.ReduceOutputBytes += outBytes
	js.counters.ReduceRunWriteBytes += runWrite
	js.counters.ReduceRunReadBytes += runRead
}
