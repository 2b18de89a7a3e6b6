package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// io_storm drives the storage and network stack directly, with no MapReduce
// on top: many simulated processes doing small appends beside random and
// sequential reads on the same caches and disks, a transfer per operation,
// and file churn. Payloads are a few KiB, so the host cost is events,
// goroutine hand-offs and per-request bookkeeping — the part of the system
// every MapReduce cell runs too cold to measure.
const (
	stormScale      = 4096
	stormSlaves     = 4
	stormProcs      = 8    // writer processes per slave
	stormOps        = 1000 // operations per writer
	stormRotate     = 16   // operations between deleting the log and starting a new one
	stormColdBytes  = 1 << 20
	stormSeqBytes   = 2 << 20
	stormSeqChunk   = 64 << 10
	stormReadBytes  = 8 << 10
	stormMinAppend  = 2 << 10 // the issue proposed 4-12 KiB appends; with one thread and no
	stormMaxAppend  = 6 << 10 // scheduler time to dilute it, their copying was 30 % of the CPU samples
	stormSampleTick = 20 * time.Millisecond
)

// stormOp is one pre-drawn writer operation.
type stormOp struct {
	compute time.Duration
	append  int   // bytes appended to the writer's log
	readOff int64 // offset of the random read in the volume's cold file
	peer    int   // slave the operation's bytes are sent to
}

// stormPlan is the generated input: everything random is drawn here, from
// the seed, before the simulation exists. The simulated system sees only
// the finished lists.
type stormPlan struct {
	writers  [][]stormOp // [slave*stormProcs+proc]
	appended uint64      // total bytes the writers will append
}

func genStorm(seed int64) *stormPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &stormPlan{writers: make([][]stormOp, stormSlaves*stormProcs)}
	for w := range pl.writers {
		self := w / stormProcs
		ops := make([]stormOp, stormOps)
		for i := range ops {
			peer := rng.Intn(stormSlaves - 1)
			if peer >= self {
				peer++
			}
			ops[i] = stormOp{
				compute: time.Duration(20+rng.Intn(180)) * time.Microsecond,
				append:  stormMinAppend + rng.Intn(stormMaxAppend-stormMinAppend+1),
				readOff: rng.Int63n(stormColdBytes - stormReadBytes),
				peer:    peer,
			}
			pl.appended += uint64(ops[i].append)
		}
		pl.writers[w] = ops
	}
	return pl
}

// stormRun is what one pass leaves behind for the oracles and the counters.
type stormRun struct {
	cl        *cluster.Cluster
	hdfs, mr  *iostat.Report
	events    uint64
	virtual   time.Duration
	err       error
	written   uint64 // localfs BytesWritten over the intermediate volumes
	leaked    int64
	dirty     int
	fileCount int // files left on the intermediate volumes besides the cold ones
}

// runStorm builds a fresh cluster from public constructors and plays the
// plan on it.
func runStorm(pl *stormPlan, seed int64) stormRun {
	env := sim.New(seed)
	cl, err := cluster.New(env, cluster.DefaultHardware(stormScale).WithMemoryGB(16), stormSlaves)
	if err != nil {
		return stormRun{err: err}
	}
	payload := make([]byte, stormMaxAppend)
	for i := range payload {
		payload[i] = byte(i)
	}
	cold := make([]byte, stormColdBytes)
	seq := make([]byte, stormSeqBytes)

	mon := iostat.NewMonitor(stormSampleTick)
	mon.AddGroup(core.GroupHDFS, cl.AllHDFSDisks()...)
	mon.AddGroup(core.GroupMR, cl.AllMRDisks()...)
	mon.Start(env)

	var procs []*sim.Handle
	for si, node := range cl.Slaves {
		// Installed files are on disk and cold: reads of them miss.
		for _, v := range node.MRVols {
			f := v.Create("cold")
			f.Install(cold)
			f.Close()
		}
		for vi, v := range node.HDFSVols {
			f := v.Create("seq")
			f.SetStage(disk.StageHDFS)
			f.Install(seq)
			f.Close()
			node, v := node, v
			procs = append(procs, env.Go(fmt.Sprintf("%s.seq%d", node.Name, vi), func(p *sim.Proc) {
				stormReader(p, v)
			}))
		}
		for pi := 0; pi < stormProcs; pi++ {
			node, vol, ops := node, node.MRVols[pi%len(node.MRVols)], pl.writers[si*stormProcs+pi]
			name := fmt.Sprintf("%s.w%d", node.Name, pi)
			procs = append(procs, env.Go(name, func(p *sim.Proc) {
				stormWriter(p, cl, node, vol, name, ops, payload)
			}))
		}
	}
	env.Go("storm-driver", func(p *sim.Proc) {
		for _, h := range procs {
			h.Wait(p)
		}
		cl.SyncAll(p)
		mon.Stop(p.Now())
	})
	virtual, err := env.Run(0)

	r := stormRun{cl: cl, events: env.Events(), virtual: virtual, err: err,
		hdfs: mon.Report(core.GroupHDFS), mr: mon.Report(core.GroupMR)}
	for _, node := range cl.Slaves {
		for _, v := range node.MRVols {
			r.written += v.Stats().BytesWritten
			r.fileCount += len(v.List()) - 1
		}
		for _, v := range append(append([]*localfs.FS{}, node.HDFSVols...), node.MRVols...) {
			r.leaked += v.LeakedExtents()
			r.dirty += v.Cache().DirtyPages()
		}
	}
	return r
}

// stormWriter is one writer's loop: think, append a few KiB to its log, read
// 8 KiB from a random spot of the volume's cold file, ship the appended bytes
// to a peer, and every stormRotate operations delete the log and start over.
func stormWriter(p *sim.Proc, cl *cluster.Cluster, node *cluster.Node, vol *localfs.FS, name string, ops []stormOp, payload []byte) {
	cold, err := vol.Open("cold")
	if err != nil {
		panic(err) // installed above; absence is a bug in this file
	}
	defer cold.Close()
	var log *localfs.File
	logName := ""
	for i, op := range ops {
		if i%stormRotate == 0 {
			if log != nil {
				log.Close()
				if err := vol.Delete(logName); err != nil {
					panic(err)
				}
			}
			logName = fmt.Sprintf("%s.log%d", name, i/stormRotate)
			log = vol.Create(logName)
			log.SetStage(disk.StageSpill)
		}
		node.Compute(p, op.compute)
		log.Append(p, payload[:op.append])
		cold.ReadAt(p, op.readOff, stormReadBytes)
		cl.Net.Transfer(p, node.Name, cl.Slaves[op.peer].Name, int64(op.append))
	}
	log.Close()
	if err := vol.Delete(logName); err != nil {
		panic(err)
	}
}

// stormReader streams one installed file front to back in 64 KiB reads —
// the large sequential access the writers' small requests compete with.
func stormReader(p *sim.Proc, vol *localfs.FS) {
	f, err := vol.Open("seq")
	if err != nil {
		panic(err)
	}
	defer f.Close()
	for off := int64(0); off < f.Size(); off += stormSeqChunk {
		f.ReadAt(p, off, stormSeqChunk)
	}
}

// fingerprint hashes a pass's simulated outcome: the clock, the event count
// and the byte totals of every layer the storm touched.
func (r stormRun) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "virtual=%d events=%d written=%d\n", r.virtual, r.events, r.written)
	for _, rep := range []*iostat.Report{r.hdfs, r.mr} {
		fmt.Fprintf(h, "%s=%d,%d,%d,%d\n", rep.Name, rep.TotalReadBytes, rep.TotalWrittenBytes, rep.TotalReads, rep.TotalWrites)
	}
	for _, n := range r.cl.Net.Stats().NICs {
		fmt.Fprintf(h, "%s=%d,%d\n", n.Node, n.BytesSent, n.BytesReceived)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func stormIterate(it *iteration) outcome {
	out := outcome{attempted: 1}
	pl := genStorm(it.seed)
	var r stormRun
	it.timed(func() { r = runStorm(pl, it.seed) })

	switch {
	case r.err != nil:
		out.failf("io_storm: %v", r.err) // a *sim.DeadlockError names the stuck processes
		return out
	case r.dirty != 0:
		out.failf("io_storm: %d dirty pages after the final sync", r.dirty)
	case r.leaked != 0:
		out.failf("io_storm: %d sectors leaked", r.leaked)
	case r.written != pl.appended:
		out.failf("io_storm: writers appended %d bytes, localfs counted %d", pl.appended, r.written)
	case r.fileCount != 0:
		out.failf("io_storm: %d log files left undeleted", r.fileCount)
	}

	out.fingerprint = r.fingerprint()

	if it.traced {
		it.acc.cells++
		it.acc.cluster(r.cl)
		it.acc.disks(r.hdfs, r.mr)
		it.acc.network(r.cl.Net.Stats())
		it.acc.add("sim.events", float64(r.events))
		it.acc.add("core.virt_wall_s", r.virtual.Seconds())
		it.acc.hash = hash32(out.fingerprint)
		it.tr.add(trackVirtual, it.span, "io_storm", 0, virtUS(r.virtual))
	}
	return out
}
