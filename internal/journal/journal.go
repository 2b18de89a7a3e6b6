// Package journal is the one write-ahead log both Hadoop masters keep their
// metadata in: a journal file and a checkpoint image on a metadata volume,
// a daemon that charges logged records to the disk in batches, a daemon that
// periodically rolls the journal into a fresh image, fail-stop and restart
// with the replay read, and the bounded-backoff stall of callers that find
// the master unavailable. The NameNode and the JobTracker each supply a
// record codec, a state codec (a live snapshot, a record's apply step, and
// the image's render and parse) and what they reconcile after a replay;
// everything else is here, once.
//
// The image and journal bytes on the volume are the master's one copy of
// its durable state: a restart parses what it reads back, rebuilds the
// state from that, and panics unless it equals the live state. The flush
// daemon appends records to the journal file in batches, so the disk sees
// the batched sequential pattern real edit logging produces — real bytes
// through the page-cache and disk models, so the metadata stream shows up
// in iostat as the paper's master-node traces do. A record not yet in the
// file is the one exception: it waits in the log's pending list, which a
// crash keeps and a restart applies after the file's records. Hadoop's
// logSync instead makes a record durable before the mutation is
// acknowledged; this model does not yet. A checkpoint cuts its image while
// records may still be pending; they reach the fresh journal file after
// the image already holds them, so the log counts them (covered) and a
// replay skips them.
package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
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

// Spec is what distinguishes one master's log from another's: R is its
// record, S its state as a replay rebuilds it.
type Spec[R, S any] struct {
	// Master names the master in a divergent replay's panic.
	Master string
	// JournalFile and ImageFile name the two files on the metadata volume;
	// their disk requests are tagged disk.StageMeta.
	JournalFile, ImageFile string
	// FlushProc and CheckpointProc name the two daemon processes.
	FlushProc, CheckpointProc string
	// Render gives a record its on-disk shape, one line ending in a newline;
	// Parse reads that line back, without its newline.
	Render func(R) string
	Parse  func(line string) (R, error)
	// Live snapshots the master's live state, Apply applies one record to a
	// state and returns it, RenderImage gives a state its image bytes
	// (deterministically) and ParseImage reads them back; an empty image is
	// the empty state. A checkpoint's image is the live state rendered after
	// the checkpoint's flush, so the image plus the journal records after it
	// always equal live state.
	Live        func() S
	Apply       func(S, R) S
	RenderImage func(S) []byte
	ParseImage  func(image []byte) (S, error)
	// Tick, when set, runs on every checkpoint tick the master is up for,
	// before the checkpoint; returning false skips this tick's checkpoint.
	Tick func(now time.Duration) bool
}

// Log is one master's write-ahead journal and checkpoint machinery.
type Log[R, S any] struct {
	spec Spec[R, S]
	cfg  Config
	vol  *localfs.FS
	rng  *rand.Rand

	file    *localfs.File
	pending []R // records logged but not yet in the journal file
	covered int // leading records of the journal (file, then pending) the image holds

	down    bool
	stopped bool
	wake    *sim.Cond // signalled when pending gains records or state changes
	ready   *sim.Cond // signalled when the master may have become serviceable
	stats   Stats
}

// New creates the journal file on vol and starts the flush and checkpoint
// daemons. Call Stop when the run ends or they keep env.Run alive.
func New[R, S any](env *sim.Env, vol *localfs.FS, spec Spec[R, S], cfg Config) *Log[R, S] {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	l := &Log[R, S]{
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
func (l *Log[R, S]) create(name string) *localfs.File {
	_ = l.vol.Delete(name) // fails only when there is nothing to replace
	f := l.vol.Create(name)
	f.SetStage(disk.StageMeta)
	return f
}

// Append logs one record, queued for the flush daemon to write to the
// journal file.
func (l *Log[R, S]) Append(r R) {
	l.pending = append(l.pending, r)
	l.stats.JournalRecords++
	l.wake.Broadcast()
}

// Stats returns a copy of the counters.
func (l *Log[R, S]) Stats() Stats { return l.stats }

// Flush appends every pending record to the journal file and syncs it — the
// batched sequential metadata write the paper's master traces show. The
// flush daemon calls it; the run driver also does, before the final cache
// sync, so a run's journal bytes are fully accounted.
func (l *Log[R, S]) Flush(p *sim.Proc) {
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
// as the new image (real bytes written and synced) and recreate the journal
// file empty. Records logged while the flush blocked are in the image and
// still pending; they are the new journal's covered prefix.
func (l *Log[R, S]) checkpoint(p *sim.Proc) {
	l.Flush(p)
	l.covered = len(l.pending)
	data := l.spec.RenderImage(l.spec.Live())
	l.file = l.create(l.spec.JournalFile)
	img := l.create(l.spec.ImageFile)
	img.Append(p, data)
	img.Sync(p)
	l.stats.Checkpoints++
	l.stats.CheckpointBytes += uint64(len(data))
}

// Crash fail-stops the master: callers stall, the daemons idle, and no bytes
// reach the disk until Restart. The metadata volume itself survives, and so
// do the pending records (see the package comment). It never blocks, so a
// fault injector's inline timer callback may call it; a second call is a
// no-op.
func (l *Log[R, S]) Crash() { l.down = true }

// Down reports whether the master is currently crashed.
func (l *Log[R, S]) Down() bool { return l.down }

// Restart brings a crashed master back: it reads image and journal off the
// metadata disk (the replay, charged as sequential reads), marks the master
// up, rebuilds the state from those bytes, panics naming the first image
// line where that differs from the live state, runs reconcile — the
// master's own repairs after an outage, which must not block — and then
// wakes the daemons and everyone parked in WaitReady. On a master that is
// not down it does nothing.
func (l *Log[R, S]) Restart(p *sim.Proc, reconcile func()) {
	if !l.down {
		return
	}
	var read [2][]byte
	for i, name := range []string{l.spec.ImageFile, l.spec.JournalFile} {
		sz := l.vol.Size(name)
		if sz <= 0 {
			continue
		}
		f, _ := l.vol.Open(name) // Size found it
		f.SetStage(disk.StageMeta)
		read[i] = f.ReadAt(p, 0, sz)
		l.stats.ReplayBytes += uint64(sz)
	}
	records := l.replay(read[1])
	l.stats.Restarts++
	l.stats.ReplayRecords += uint64(len(records))
	l.down = false
	l.check(l.rebuild(read[0], records))
	reconcile()
	l.wake.Broadcast()
	l.ready.Broadcast()
}

// Replayed is the state a restart at this instant would rebuild — the
// image and journal bytes on the volume plus the records not yet flushed —
// read without charging the disk. Equality with the live state is the
// durability invariant Restart checks.
func (l *Log[R, S]) Replayed() S { return l.rebuild(l.peek()) }

// peek returns what a restart at this instant would recover from — the
// image bytes and the journal records after them — read off the volume
// without charging the disk.
func (l *Log[R, S]) peek() ([]byte, []R) {
	return l.vol.Peek(l.spec.ImageFile), l.replay(l.vol.Peek(l.spec.JournalFile))
}

// replay parses the journal file's bytes, appends the records still pending
// and drops the covered ones the image already holds.
func (l *Log[R, S]) replay(journal []byte) []R {
	var records []R
	for len(journal) > 0 {
		var line []byte
		line, journal, _ = bytes.Cut(journal, []byte{'\n'})
		r, err := l.spec.Parse(string(line))
		if err != nil {
			panic(fmt.Sprintf("journal: %s: %v", l.spec.JournalFile, err))
		}
		records = append(records, r)
	}
	return append(records, l.pending...)[l.covered:]
}

// rebuild is a restart's state: the image parsed, the records after it
// applied.
func (l *Log[R, S]) rebuild(image []byte, records []R) S {
	s, err := l.spec.ParseImage(image)
	if err != nil {
		panic(err)
	}
	for _, r := range records {
		s = l.spec.Apply(s, r)
	}
	return s
}

// check panics, naming the first image line where they part, unless the
// state a restart rebuilt renders as the live state does.
func (l *Log[R, S]) check(rebuilt S) {
	r := strings.Split(string(l.spec.RenderImage(rebuilt)), "\n")
	lv := strings.Split(string(l.spec.RenderImage(l.spec.Live())), "\n")
	i := 0
	for i < min(len(r), len(lv))-1 && r[i] == lv[i] {
		i++
	}
	if r[i] != lv[i] || len(r) != len(lv) {
		panic(fmt.Sprintf("%s: replayed state diverges from live at image line %d:\n replayed %q\n live     %q",
			l.spec.Master, i+1, r[i], lv[i]))
	}
}

// Stall holds a caller while blocked() says the master cannot serve it,
// retrying on bounded exponential backoff with jitter — one fresh schedule
// per stalled caller — so callers pile back onto the restarted master
// staggered, not as a herd. A caller that finds the master serving pays
// nothing and is not counted.
func (l *Log[R, S]) Stall(p *sim.Proc, blocked func() bool) {
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
func (l *Log[R, S]) WaitReady(p *sim.Proc, blocked func() bool) {
	for !l.stopped && blocked() {
		l.ready.Wait(p)
	}
}

// NotifyReady wakes WaitReady callers to re-check their condition: the
// caller changed something their blocked() reads (safe mode lifted, the
// waiter's own subsystem stopping).
func (l *Log[R, S]) NotifyReady() { l.ready.Broadcast() }

// Stop shuts the machinery down: the daemons exit at their next wake-up and
// stalled or waiting callers unblock. Pending record bytes are abandoned
// unless Flush ran first.
func (l *Log[R, S]) Stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	l.wake.Broadcast()
	l.ready.Broadcast()
}
