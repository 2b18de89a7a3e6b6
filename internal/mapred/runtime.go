package mapred

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/netsim"
	"iochar/internal/sim"
)

// Runtime is the MapReduce service for one cluster: the JobTracker plus a
// TaskTracker per slave, each offering Config.MapSlots and
// Config.ReduceSlots concurrent task slots.
type Runtime struct {
	env    *sim.Env
	cl     *cluster.Cluster
	fs     *hdfs.FS
	net    *netsim.Network // cl.Net
	netRng *rand.Rand
	cfg    Config

	// sortBufs holds the sort buffers of finished map attempts, each taken
	// by the next attempt that buffers a pair (see mapState.recycle).
	sortBufs []sortBuf
	// sortWork is every map attempt's radix-sort working space: the sort
	// never yields to the kernel, so no two attempts are inside it together.
	sortWork radixWork
	// runs is the free list every serialized partition and materialized
	// merge takes its array from (see runList).
	runs runList

	// Fault mode: nil/false in healthy runs, so every recovery branch below
	// is dead code and the scheduler is byte-identical to a build without
	// fault tolerance.
	faulty     bool
	fetchFault func(now time.Duration) bool // injected shuffle-fetch drop
	active     map[*jobState]bool           // jobs in flight, for OnNodeDown

	// Master-recovery mode (see master.go); nil in runs without it.
	master *jtMaster
	jobs   map[string]*jobState // in-flight jobs by name, for snapshots
}

// New wires a runtime. Slaves double as DataNodes and TaskTrackers, as on
// the paper's testbed.
func New(env *sim.Env, cl *cluster.Cluster, fs *hdfs.FS, cfg Config) (*Runtime, error) {
	if cfg.MapSlots <= 0 || cfg.ReduceSlots <= 0 {
		return nil, fmt.Errorf("mapred: slot counts must be positive, got %d map / %d reduce", cfg.MapSlots, cfg.ReduceSlots)
	}
	if cfg.SortBufBytes <= 0 || cfg.ShuffleBufBytes <= 0 {
		return nil, fmt.Errorf("mapred: buffer sizes must be positive, got sort %d / shuffle %d", cfg.SortBufBytes, cfg.ShuffleBufBytes)
	}
	if cfg.SortBufBytes > math.MaxUint32 {
		// Sort-buffer index entries address the arena with uint32 offsets.
		return nil, fmt.Errorf("mapred: sort buffer of %d bytes exceeds the %d the index entries can address", cfg.SortBufBytes, uint32(math.MaxUint32))
	}
	if cfg.MaxTaskAttempts <= 0 {
		return nil, fmt.Errorf("mapred: the task attempt budget must be positive, got %d", cfg.MaxTaskAttempts)
	}
	return &Runtime{env: env, cl: cl, fs: fs, net: cl.Net, cfg: cfg,
		netRng: rand.New(rand.NewSource(cfg.Seed ^ 0x6d725f6e)),
		active: make(map[*jobState]bool)}, nil
}

// EnableFaults switches the runtime's recovery machinery on: lingering map
// workers that can re-execute lost tasks, reduce reassignment, fetch
// retries. Call it once before Run and only for runs with a fault plan —
// the recovery scheduler trades some bookkeeping for survivability and is
// kept off the healthy baseline's path.
func (rt *Runtime) EnableFaults() { rt.faulty = true }

// SetFetchFault installs a hook consulted before every shuffle fetch; a
// true return drops the fetch (the transient network-fault injection
// point). Implies EnableFaults.
func (rt *Runtime) SetFetchFault(f func(now time.Duration) bool) {
	rt.faulty = true
	rt.fetchFault = f
}

// OnNodeDown is the JobTracker learning that a TaskTracker died: running
// attempts on the node are written off, its completed map outputs are
// declared lost (their tasks re-enqueued), and its claimed reduce
// partitions are released for other nodes.
func (rt *Runtime) OnNodeDown(name string) {
	if rt.deferMembership(func() { rt.OnNodeDown(name) }) {
		return // the JobTracker is down; it learns of this at restart
	}
	for js := range rt.active {
		js.onNodeDown(name)
	}
}

// jobState is the JobTracker's view of one running job.
type jobState struct {
	env      *sim.Env
	rt       *Runtime // journal hook access; scheduling never reads it
	cfg      *Config
	counters Counters

	splits    []split
	taken     []bool
	completed []bool
	startedAt []time.Duration
	attempts  []int
	mapsLeft  int
	mapsDone  int
	totalMaps int

	// completed-duration statistics feeding the straggler detector.
	durSum time.Duration
	durCnt int

	outputs     []*mapOutput // completion order (append-only; entries may be marked lost)
	outputsCond *sim.Cond

	reduceNext  int
	slowstartOK bool
	slowCond    *sim.Cond
	slowAt      int // maps needed before reducers start

	// Fault-mode state (see recovery.go); untouched in healthy runs.
	faulty       bool
	jobName      string
	job          *Job           // for respawning workers on tracker rejoin
	mapLive      map[string]int // live map workers per node (fault mode)
	redLive      map[string]int // live reduce workers per node (fault mode)
	extra        []*sim.Handle  // workers respawned by tracker re-registration
	failed       error          // terminal job failure, set once
	done         bool           // every reduce partition completed
	mapWorkCond  *sim.Cond      // signalled when map work (re)appears or the job ends
	attemptNodes [][]string     // per task: nodes with a live running attempt
	allMapsAt    time.Duration
	redClaimed   []bool
	redOwner     []string
	redDone      []bool
	redDoneCount int
	redCond      *sim.Cond

	// Tracker blacklisting (fault mode): failed attempts per tracker, and
	// the trackers excluded from new scheduling after maxTrackerFailures.
	trackerFailures map[string]int
	blacklisted     map[string]bool
}

// taskDone reports whether some attempt of the task already finished —
// running backup/original attempts poll this at chunk boundaries and
// abandon, the runtime's equivalent of Hadoop killing the loser.
func (js *jobState) taskDone(taskIdx int) bool { return js.completed[taskIdx] }

// completeMap registers a finished map attempt's output. The first attempt
// of a task wins; a later duplicate (speculation lost the race at the very
// end) discards its files. It reports whether this attempt won. In fault
// mode an output produced on a node that has since died — or crashed and
// restarted, truncating intermediate files — is rejected: its data is
// unreachable or incomplete for the shuffle.
func (js *jobState) completeMap(out *mapOutput) bool {
	if js.completed[out.taskIdx] || (js.faulty && (!out.node.Alive() || out.node.Incarnation() != out.inc)) {
		if out.file != nil {
			_ = out.vol.Delete(out.file.Name())
		}
		return false
	}
	js.completed[out.taskIdx] = true
	js.jtRecord(jOpMapDone, out.taskIdx, 0)
	js.durSum += js.env.Now() - js.startedAt[out.taskIdx]
	js.durCnt++
	js.outputs = append(js.outputs, out)
	js.mapsDone++
	if js.mapsDone == js.totalMaps {
		js.allMapsAt = js.env.Now()
	}
	js.outputsCond.Broadcast()
	if !js.slowstartOK && js.mapsDone >= js.slowAt {
		js.slowstartOK = true
		js.slowCond.Broadcast()
	}
	return true
}

// nextOutput hands a reduce fetcher the next map output in completion
// order, blocking until one is available; nil means every map output has
// been consumed by this fetcher group. In fault mode lost outputs and
// already-fetched tasks are skipped and the group finishes only when every
// task's output has actually been fetched (st.count), since a lost output
// means a replacement will appear later in the list.
func (js *jobState) nextOutput(p *sim.Proc, st *fetchState) *mapOutput {
	if !js.faulty {
		for {
			if st.cursor < len(js.outputs) {
				out := js.outputs[st.cursor]
				st.cursor++
				return out
			}
			if st.cursor >= js.totalMaps {
				return nil
			}
			js.outputsCond.Wait(p)
		}
	}
	for {
		if js.failed != nil || js.done {
			return nil
		}
		for st.cursor < len(js.outputs) {
			out := js.outputs[st.cursor]
			st.cursor++
			if out.lost || st.got[out.taskIdx] {
				continue
			}
			return out
		}
		if st.count >= js.totalMaps {
			return nil
		}
		js.outputsCond.Wait(p)
	}
}

// fetchState is one reduce attempt's shuffle progress: the shared cursor
// into the outputs list plus, in fault mode, which tasks' outputs this
// attempt has successfully pulled.
type fetchState struct {
	cursor int
	got    []bool // per map task (fault mode only)
	count  int
}

// pickMap chooses the next map task for a node, preferring data-local
// splits as Hadoop's scheduler does. If allowRemote is false a node with no
// local work gets -1 while fresh tasks remain (delay scheduling). When no
// fresh task is left but maps are still running, an idle slot may claim a
// speculative backup attempt of a straggling task; only when every task has
// completed does it return remain=false.
func (js *jobState) pickMap(node string, allowRemote bool) (idx int, remain bool) {
	if js.failed != nil || js.done {
		return -1, false
	}
	if js.mapsDone == js.totalMaps {
		return -1, false
	}
	if js.mapsLeft > 0 {
		fallback := -1
		for i, sp := range js.splits {
			if js.taken[i] {
				continue
			}
			if fallback < 0 {
				fallback = i
			}
			for _, h := range sp.hosts {
				if h == node {
					return js.claimChecked(i)
				}
			}
		}
		if allowRemote && fallback >= 0 {
			return js.claimChecked(fallback)
		}
		return -1, true
	}
	if idx := js.pickStraggler(); idx >= 0 {
		return idx, true
	}
	return -1, true
}

// claimChecked claims task i unless it has exhausted its attempt budget,
// in which case the job fails (fault mode; a healthy run never re-attempts
// a non-speculative task).
func (js *jobState) claimChecked(i int) (int, bool) {
	if js.faulty && js.attempts[i] >= js.cfg.MaxTaskAttempts {
		js.fail(&JobError{Job: js.jobName, Reason: fmt.Sprintf("map task %d exhausted %d attempts", i, js.cfg.MaxTaskAttempts)})
		return -1, false
	}
	return js.claim(i), true
}

// claim marks a fresh task taken and records its start.
func (js *jobState) claim(i int) int {
	js.taken[i] = true
	js.attempts[i]++
	js.startedAt[i] = js.env.Now()
	js.mapsLeft--
	return i
}

// pickStraggler returns a running, un-duplicated task whose elapsed time
// exceeds the speculation threshold (a multiple of the mean completed-task
// duration), or -1. Hadoop's progress-rate heuristic reduces to elapsed
// time here because attempts progress linearly.
func (js *jobState) pickStraggler() int {
	if js.durCnt == 0 {
		return -1
	}
	avg := js.durSum / time.Duration(js.durCnt)
	threshold := time.Duration(float64(avg) * speculativeSlowdown)
	best, bestElapsed := -1, threshold
	now := js.env.Now()
	for i := range js.splits {
		if !js.taken[i] || js.completed[i] || js.attempts[i] != 1 {
			continue
		}
		if elapsed := now - js.startedAt[i]; elapsed > bestElapsed {
			best, bestElapsed = i, elapsed
		}
	}
	if best >= 0 {
		js.attempts[best]++
		js.counters.SpeculativeAttempts++
	}
	return best
}

// Run executes the job, blocking p until completion, and returns its
// counters and phase timings.
func (rt *Runtime) Run(p *sim.Proc, job *Job) (*Result, error) {
	if err := rt.validate(job); err != nil {
		return nil, err
	}
	if job.Partitioner == nil {
		job.Partitioner = HashPartition
	}
	splits, err := rt.plan(job)
	if err != nil {
		return nil, err
	}
	js := &jobState{
		env:         rt.env,
		rt:          rt,
		cfg:         &rt.cfg,
		splits:      splits,
		taken:       make([]bool, len(splits)),
		completed:   make([]bool, len(splits)),
		startedAt:   make([]time.Duration, len(splits)),
		attempts:    make([]int, len(splits)),
		mapsLeft:    len(splits),
		totalMaps:   len(splits),
		outputsCond: sim.NewCond(rt.env),
		slowCond:    sim.NewCond(rt.env),
		faulty:      rt.faulty,
		jobName:     job.Name,
	}
	if rt.faulty {
		js.job = job
		js.mapWorkCond = sim.NewCond(rt.env)
		js.redCond = sim.NewCond(rt.env)
		js.attemptNodes = make([][]string, len(splits))
		js.redClaimed = make([]bool, job.NumReduces)
		js.redOwner = make([]string, job.NumReduces)
		js.redDone = make([]bool, job.NumReduces)
		js.trackerFailures = make(map[string]int)
		js.blacklisted = make(map[string]bool)
		js.mapLive = make(map[string]int)
		js.redLive = make(map[string]int)
		rt.active[js] = true
		defer delete(rt.active, js)
	}
	js.slowAt = int(slowstartFrac * float64(js.totalMaps))
	if js.slowAt < 1 {
		js.slowAt = 1
	}
	if rt.master != nil {
		if js.redDone == nil {
			// Healthy scheduling has no per-partition completion record; the
			// journaled master needs one.
			js.redDone = make([]bool, job.NumReduces)
		}
		rt.jobs[job.Name] = js
		js.jtRecord(jOpStart, js.totalMaps, job.NumReduces)
		defer func() {
			js.jtRecord(jOpEnd, 0, 0)
			delete(rt.jobs, job.Name)
		}()
	}
	res := &Result{Start: p.Now()}

	var workers []*sim.Handle
	// Map-slot workers.
	for _, node := range rt.cl.Slaves {
		for s := 0; s < rt.cfg.MapSlots; s++ {
			workers = append(workers, rt.spawnMapWorker(job, js, node, s))
		}
	}

	// Reduce-slot workers: start pulling partitions once slowstart allows.
	for _, node := range rt.cl.Slaves {
		for s := 0; s < rt.cfg.ReduceSlots; s++ {
			workers = append(workers, rt.spawnReduceWorker(job, js, node, s))
		}
	}

	for _, h := range workers {
		h.Wait(p)
	}
	// Workers respawned by tracker re-registration; the slice can grow while
	// draining (a node may rejoin more than once).
	for i := 0; i < len(js.extra); i++ {
		js.extra[i].Wait(p)
	}
	// Not when the last map worker exited: idle workers sit out a locality
	// wait (or, in fault mode, linger for resurrected work) past the last
	// completion.
	res.MapsDone = js.allMapsAt
	if rt.faulty && js.failed == nil && !js.done {
		js.fail(&JobError{Job: job.Name, Reason: "no live task trackers left"})
	}
	// Job cleanup: map output files are deleted once the job completes,
	// which is when dirty intermediate pages that never aged out die in the
	// cache instead of reaching the disks.
	for _, out := range js.outputs {
		if err := out.vol.Delete(out.file.Name()); err != nil {
			if rt.faulty {
				continue // outputs lost to dead disks may already be gone
			}
			return nil, fmt.Errorf("mapred: cleanup: %v", err)
		}
	}
	if js.failed != nil {
		return nil, js.failed
	}
	res.End = p.Now()
	res.Counters = js.counters
	res.Counters.MapTasks = js.totalMaps
	res.Counters.ReduceTasks = job.NumReduces
	return res, nil
}

// spawnMapWorker starts one map-slot worker on node. Fault mode tracks the
// per-node live-worker census so a tracker re-registration knows how many
// slots actually need refilling.
func (rt *Runtime) spawnMapWorker(job *Job, js *jobState, node *cluster.Node, s int) *sim.Handle {
	return rt.env.Go(fmt.Sprintf("map-worker:%s/%d", node.Name, s), func(wp *sim.Proc) {
		if js.mapLive != nil {
			js.mapLive[node.Name]++
			defer func() { js.mapLive[node.Name]-- }()
		}
		// Heartbeat stagger: a tracker fills one slot per heartbeat round, so
		// the first claims spread across nodes instead of one node's full
		// slot bank draining the task queue.
		wp.Sleep(time.Duration(s) * rt.cfg.localityWait / 4)
		rt.mapWorkerLoop(wp, job, js, node)
	})
}

func (rt *Runtime) mapWorkerLoop(wp *sim.Proc, job *Job, js *jobState, node *cluster.Node) {
	misses := 0
	for {
		// Asking for a task is a JobTracker heartbeat: it stalls while the
		// master is down, with backoff+jitter retries.
		rt.jtWait(wp, node.Name)
		if rt.faulty && (!node.Alive() || js.blacklisted[node.Name]) {
			return // tracker died or was blacklisted; work goes elsewhere
		}
		idx, remain := js.pickMap(node.Name, misses >= localityRetries)
		if !remain {
			if !rt.faulty || js.done || js.failed != nil {
				return
			}
			// Fault mode: a lost map output can resurrect work until the
			// last reduce finishes, so idle workers linger instead of
			// exiting.
			js.mapWorkCond.Wait(wp)
			continue
		}
		if idx < 0 {
			// Delay scheduling: wait for local work to appear or for the
			// steal budget to unlock.
			misses++
			wp.Sleep(rt.cfg.localityWait)
			continue
		}
		misses = 0
		attempt := js.attempts[idx]
		sp := js.splits[idx]
		local := false
		for _, h := range sp.hosts {
			if h == node.Name {
				local = true
				break
			}
		}
		if local {
			js.counters.LocalMaps++
		} else {
			js.counters.RemoteMaps++
		}
		js.noteAttempt(idx, node.Name)
		rt.mapTask(wp, job, js, idx, attempt, sp, node)
		js.clearAttempt(idx, node.Name)
	}
}

// spawnReduceWorker starts one reduce-slot worker on node.
func (rt *Runtime) spawnReduceWorker(job *Job, js *jobState, node *cluster.Node, s int) *sim.Handle {
	return rt.env.Go(fmt.Sprintf("reduce-worker:%s/%d", node.Name, s), func(wp *sim.Proc) {
		if js.redLive != nil {
			js.redLive[node.Name]++
			defer func() { js.redLive[node.Name]-- }()
		}
		rt.reduceWorkerLoop(wp, job, js, node)
	})
}

func (rt *Runtime) reduceWorkerLoop(wp *sim.Proc, job *Job, js *jobState, node *cluster.Node) {
	for !js.slowstartOK {
		if js.failed != nil {
			return
		}
		js.slowCond.Wait(wp)
	}
	if !rt.faulty {
		for {
			rt.jtWait(wp, node.Name)
			if js.reduceNext >= job.NumReduces {
				return
			}
			part := js.reduceNext
			js.reduceNext++
			rt.reduceTask(wp, job, js, part, node)
		}
	}
	// Fault mode: claim unowned partitions until all are done; a partition
	// whose owner died is released for re-claiming.
	for {
		rt.jtWait(wp, node.Name)
		if !node.Alive() || js.failed != nil || js.blacklisted[node.Name] {
			return
		}
		part := -1
		for i := range js.redClaimed {
			if !js.redClaimed[i] && !js.redDone[i] {
				part = i
				js.redClaimed[i] = true
				js.redOwner[i] = node.Name
				break
			}
		}
		if part < 0 {
			if js.done {
				return
			}
			js.redCond.Wait(wp)
			continue
		}
		rt.reduceTask(wp, job, js, part, node)
		if !js.redDone[part] && js.redOwner[part] == node.Name {
			// The attempt died under this node; release it.
			js.redClaimed[part] = false
			js.redOwner[part] = ""
			js.redCond.Broadcast()
		}
	}
}

// OnNodeRejoin is the JobTracker learning that a restarted TaskTracker has
// re-registered: its blacklist entry and failure tally are cleared (the
// restart wiped whatever made it sick) and its task slots rejoin scheduling.
// Only the slots that are actually empty are refilled — a tracker that
// bounced faster than its parked workers noticed must not end up with more
// workers than slots (the double-registration the chaos oracle checks for).
func (rt *Runtime) OnNodeRejoin(name string) {
	if !rt.faulty {
		return
	}
	if rt.deferMembership(func() { rt.OnNodeRejoin(name) }) {
		return // re-registration waits out the JobTracker outage
	}
	node := rt.cl.FindNode(name)
	if node == nil {
		return
	}
	byName := func(a, b *jobState) int { return strings.Compare(a.jobName, b.jobName) }
	for _, js := range slices.SortedFunc(maps.Keys(rt.active), byName) {
		js.rejoinTracker(rt, node)
	}
}

// rejoinTracker refills one job's worker slots on a returning node.
func (js *jobState) rejoinTracker(rt *Runtime, node *cluster.Node) {
	if js.done || js.failed != nil {
		return
	}
	delete(js.blacklisted, node.Name)
	delete(js.trackerFailures, node.Name)
	if js.mapLive[node.Name] > js.cfg.MapSlots || js.redLive[node.Name] > js.cfg.ReduceSlots {
		js.counters.DoubleRegistrations++
	}
	for s := js.mapLive[node.Name]; s < js.cfg.MapSlots; s++ {
		js.extra = append(js.extra, rt.spawnMapWorker(js.job, js, node, s))
	}
	for s := js.redLive[node.Name]; s < js.cfg.ReduceSlots; s++ {
		js.extra = append(js.extra, rt.spawnReduceWorker(js.job, js, node, s))
	}
	// Parked workers elsewhere may be waiting for schedulable slots.
	js.mapWorkCond.Broadcast()
	js.redCond.Broadcast()
}

// validate rejects malformed jobs loudly.
func (rt *Runtime) validate(job *Job) error {
	switch {
	case job.Mapper == nil:
		return fmt.Errorf("mapred: job %s: nil mapper", job.Name)
	case job.Reducer == nil:
		return fmt.Errorf("mapred: job %s: nil reducer", job.Name)
	case job.NumReduces <= 0:
		return fmt.Errorf("mapred: job %s: NumReduces = %d", job.Name, job.NumReduces)
	case len(job.Input) == 0:
		return fmt.Errorf("mapred: job %s: no input", job.Name)
	case job.Output == "":
		return fmt.Errorf("mapred: job %s: no output path", job.Name)
	case job.Format == nil:
		return fmt.Errorf("mapred: job %s: nil record format", job.Name)
	}
	return nil
}

// plan computes one split per block of each input file, with the block's
// replica hosts for locality scheduling.
func (rt *Runtime) plan(job *Job) ([]split, error) {
	blockSize := rt.fs.Config().BlockSize
	_, wholeFile := job.Format.(KVFormat)
	var out []split
	for _, path := range job.Input {
		size := rt.fs.Size(path)
		if size < 0 {
			return nil, fmt.Errorf("mapred: job %s: input %s not found", job.Name, path)
		}
		if size == 0 {
			continue
		}
		locs, err := rt.fs.BlockLocations(path)
		if err != nil {
			return nil, err
		}
		if wholeFile {
			var hosts []string
			if len(locs) > 0 {
				hosts = locs[0]
			}
			out = append(out, split{file: path, off: 0, len: size, hosts: hosts})
			continue
		}
		for b := int64(0); b*blockSize < size; b++ {
			length := blockSize
			if b*blockSize+length > size {
				length = size - b*blockSize
			}
			var hosts []string
			if int(b) < len(locs) {
				hosts = locs[b]
			}
			out = append(out, split{file: path, off: b * blockSize, len: length, hosts: hosts})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mapred: job %s: inputs are empty", job.Name)
	}
	return out, nil
}
