// Package journal is the one write-ahead log both Hadoop masters keep their
// metadata in: a journal file and a checkpoint image on a metadata volume,
// a daemon that charges logged records to the disk in batches, a daemon that
// periodically rolls the journal into a fresh image, fail-stop and restart
// with the replay read, and the bounded-backoff stall of callers that find
// the master unavailable. The NameNode and the JobTracker each supply a
// record type, how it renders, how their live state renders as an image, and
// what they do after a replay; everything else is here, once.
//
// Modelling note — logical vs physical journal. The logical journal (the
// records a replay consumes) is appended synchronously at mutation time, as
// Hadoop's logSync-before-ack guarantees; the *bytes* of those records are
// charged to the metadata disk asynchronously, in batches, by the flush
// daemon. Durability is therefore never lost to a crash (the synchronous-log
// contract) while the disk sees the batched sequential append pattern real
// edit logging produces — real bytes through the page-cache and disk models,
// so the metadata stream shows up in iostat as the paper's master-node
// traces do.
package journal

import (
	"math/rand"
	"time"

	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/sim"
)

// Config tunes a master's durability and its callers' retry discipline.
// Non-positive durations select the experiment-scale defaults below; the run
// driver passes values compressed by the run's scale factor instead.
type Config struct {
	// CheckpointInterval is how often the journal is rolled into an image
	// (fs.checkpoint.period; Hadoop's hour compressed to experiment
	// timescales). Default 30 s.
	CheckpointInterval time.Duration
	// RetryBase and RetryMax bound the exponential backoff callers sleep on
	// while the master is unavailable (the ipc.client.connect retry policy).
	// Defaults 200 ms and RetryBase (sim.NewBackoff's).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives the jitter of the retry backoff.
	Seed int64
}

// Stats counts the durability and recovery work every master does.
type Stats struct {
	JournalRecords  uint64        // records logged
	JournalBytes    uint64        // journal bytes appended to the metadata disk
	JournalBatches  uint64        // flush-daemon batches
	Checkpoints     uint64        // image checkpoints written
	CheckpointBytes uint64        // image bytes written
	Restarts        int           // times the master was restarted
	ReplayRecords   uint64        // journal records replayed across restarts
	ReplayBytes     uint64        // image+journal bytes read back at restart
	Stalls          uint64        // caller operations that found the master unavailable
	StallTime       time.Duration // total caller time spent stalled
}

// Spec is what distinguishes one master's log from another's.
type Spec[R any] struct {
	// JournalFile and ImageFile name the two files on the metadata volume;
	// Stage tags their disk requests.
	JournalFile, ImageFile string
	Stage                  disk.Stage
	// FlushProc and CheckpointProc name the two daemon processes.
	FlushProc, CheckpointProc string
	// Render gives a record its on-disk shape — proportional real bytes in
	// the spirit of a log record, not a serialization format.
	Render func(R) string
	// Image snapshots the master's live state as the next checkpoint image.
	// It runs after the checkpoint's flush, at the instant the logical
	// journal is cleared, so image plus journal always equals live state.
	Image func() []byte
	// Tick, when set, runs on every checkpoint tick the master is up for,
	// before the checkpoint; returning false skips this tick's checkpoint.
	Tick func(now time.Duration) bool
}

// Log is one master's write-ahead journal and checkpoint machinery.
type Log[R any] struct {
	spec Spec[R]
	cfg  Config
	vol  *localfs.FS
	rng  *rand.Rand

	file    *localfs.File
	pending []R // records logged but not yet byte-charged
	records []R // logical journal since the last checkpoint

	down    bool
	stopped bool
	wake    *sim.Cond // signalled when pending gains records or state changes
	ready   *sim.Cond // signalled when the master may have become serviceable
	stats   Stats
}

// New creates the journal file on vol and starts the flush and checkpoint
// daemons. Call Stop when the run ends or they keep env.Run alive.
func New[R any](env *sim.Env, vol *localfs.FS, spec Spec[R], cfg Config) *Log[R] {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	l := &Log[R]{
		spec:  spec,
		cfg:   cfg,
		vol:   vol,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		wake:  sim.NewCond(env),
		ready: sim.NewCond(env),
	}
	l.file = l.create(spec.JournalFile)

	env.Go(spec.FlushProc, func(p *sim.Proc) {
		for {
			for len(l.pending) == 0 || l.down {
				if l.stopped {
					return
				}
				l.wake.Wait(p)
			}
			l.Flush(p)
		}
	})
	env.Go(spec.CheckpointProc, func(p *sim.Proc) {
		for {
			p.Sleep(l.cfg.CheckpointInterval)
			if l.stopped {
				return
			}
			if l.down || (l.spec.Tick != nil && !l.spec.Tick(p.Now())) {
				continue
			}
			l.checkpoint(p)
		}
	})
	return l
}

// create makes name afresh on the metadata volume, replacing any earlier
// incarnation of it.
func (l *Log[R]) create(name string) *localfs.File {
	_ = l.vol.Delete(name) // fails only when there is nothing to replace
	f := l.vol.Create(name)
	f.SetStage(l.spec.Stage)
	return f
}

// Append logs one record: appended to the logical journal immediately (the
// synchronous-durability contract) and queued for the flush daemon to charge
// its bytes to the metadata disk.
func (l *Log[R]) Append(r R) {
	l.records = append(l.records, r)
	l.pending = append(l.pending, r)
	l.stats.JournalRecords++
	l.wake.Broadcast()
}

// Records returns the logical journal since the last checkpoint — what a
// restart replays on top of the image. The slice is the log's own.
func (l *Log[R]) Records() []R { return l.records }

// Stats returns a copy of the counters.
func (l *Log[R]) Stats() Stats { return l.stats }

// Flush appends every pending record to the journal file and syncs it — the
// batched sequential metadata write the paper's master traces show. The
// flush daemon calls it; the run driver also does, before the final cache
// sync, so a run's journal bytes are fully accounted.
func (l *Log[R]) Flush(p *sim.Proc) {
	if len(l.pending) == 0 {
		return
	}
	batch := l.pending
	l.pending = nil
	var buf []byte
	for _, r := range batch {
		buf = append(buf, l.spec.Render(r)...)
	}
	l.file.Append(p, buf)
	l.file.Sync(p)
	l.stats.JournalBytes += uint64(len(buf))
	l.stats.JournalBatches++
}

// checkpoint rolls the journal: flush pending records, take the live state
// as the new image (real bytes written and synced), recreate the journal
// file empty, and clear the logical journal.
func (l *Log[R]) checkpoint(p *sim.Proc) {
	l.Flush(p)
	data := l.spec.Image()
	l.records = nil
	l.file = l.create(l.spec.JournalFile)
	img := l.create(l.spec.ImageFile)
	img.Append(p, data)
	img.Sync(p)
	l.stats.Checkpoints++
	l.stats.CheckpointBytes += uint64(len(data))
}

// Crash fail-stops the master: callers stall, the daemons idle, and no bytes
// reach the disk until Restart. The metadata volume itself survives (the
// logical journal is already durable). It never blocks, so a fault
// injector's inline timer callback may call it; a second call is a no-op.
func (l *Log[R]) Crash() { l.down = true }

// Down reports whether the master is currently crashed.
func (l *Log[R]) Down() bool { return l.down }

// Restart brings a crashed master back: it reads image and journal off the
// metadata disk (the replay, charged as sequential reads), marks the master
// up, runs recovered — the caller's post-replay reconciliation, which must
// not block — and then wakes the daemons and everyone parked in WaitReady.
// On a master that is not down it does nothing.
func (l *Log[R]) Restart(p *sim.Proc, recovered func()) {
	if !l.down {
		return
	}
	for _, name := range []string{l.spec.ImageFile, l.spec.JournalFile} {
		sz := l.vol.Size(name)
		if sz <= 0 {
			continue
		}
		f, err := l.vol.Open(name)
		if err != nil {
			continue
		}
		f.SetStage(l.spec.Stage)
		f.ReadAt(p, 0, sz)
		l.stats.ReplayBytes += uint64(sz)
	}
	l.stats.Restarts++
	l.stats.ReplayRecords += uint64(len(l.records))
	l.down = false
	recovered()
	l.wake.Broadcast()
	l.ready.Broadcast()
}

// Stall holds a caller while blocked() says the master cannot serve it,
// retrying on bounded exponential backoff with jitter — one fresh schedule
// per stalled caller — so callers pile back onto the restarted master
// staggered, not as a herd. A caller that finds the master serving pays
// nothing and is not counted.
func (l *Log[R]) Stall(p *sim.Proc, blocked func() bool) {
	if l.stopped || !blocked() {
		return
	}
	l.stats.Stalls++
	start := p.Now()
	retry := sim.Retry{Backoff: sim.NewBackoff(l.cfg.RetryBase, l.cfg.RetryMax, l.rng), Budget: -1}
	for !l.stopped && blocked() {
		retry.Stall(p)
	}
	l.stats.StallTime += p.Now() - start
}

// WaitReady parks p until blocked() clears, re-checking at every
// NotifyReady, Restart and Stop — the barrier for processes that must not
// poll (the run driver, NameNode-directed repair workers).
func (l *Log[R]) WaitReady(p *sim.Proc, blocked func() bool) {
	for !l.stopped && blocked() {
		l.ready.Wait(p)
	}
}

// NotifyReady wakes WaitReady callers to re-check their condition: the
// caller changed something their blocked() reads (safe mode lifted, the
// waiter's own subsystem stopping).
func (l *Log[R]) NotifyReady() { l.ready.Broadcast() }

// Stop shuts the machinery down: the daemons exit at their next wake-up and
// stalled or waiting callers unblock. Pending record bytes are abandoned
// unless Flush ran first.
func (l *Log[R]) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.wake.Broadcast()
	l.ready.Broadcast()
}
