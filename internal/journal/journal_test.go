package journal

import (
	"fmt"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

// The toy master: its records are ints, its state how many it has applied
// and their sum, its image those two in decimal on two lines. No HDFS, no
// MapReduce.
type toy struct {
	env  *sim.Env
	vol  *localfs.FS
	log  *Log[int, toyState]
	live toyState
}

type toyState struct{ n, sum int }

func renderToy(r int) string { return fmt.Sprintf("add %d\n", r) }

func parseToy(line string) (r int, err error) {
	_, err = fmt.Sscanf(line, "add %d", &r)
	return r, err
}

func applyToy(s toyState, r int) toyState { return toyState{s.n + 1, s.sum + r} }

func renderToyImage(s toyState) []byte { return fmt.Appendf(nil, "n %d\nsum %d\n", s.n, s.sum) }

func parseToyImage(image []byte) (s toyState, err error) {
	if len(image) > 0 {
		_, err = fmt.Sscanf(string(image), "n %d\nsum %d\n", &s.n, &s.sum)
	}
	return s, err
}

func newToy(cfg Config, tick func(time.Duration) bool) *toy {
	env := sim.New(1)
	p := disk.SeagateST1000NM0011()
	p.Sectors = 1 << 22
	d := disk.New(env, p)
	vol := localfs.New(d, pagecache.New(env, d, 1<<16, pagecache.DefaultReadaheadPages))
	m := &toy{env: env, vol: vol}
	m.log = New(env, vol, Spec[int, toyState]{
		Master:         "toy",
		JournalFile:    "toy_journal",
		ImageFile:      "toy_image",
		FlushProc:      "toy-flush",
		CheckpointProc: "toy-checkpoint",
		Render:         renderToy,
		Parse:          parseToy,
		Live:           func() toyState { return m.live },
		Apply:          applyToy,
		RenderImage:    renderToyImage,
		ParseImage:     parseToyImage,
		Tick:           tick,
	}, cfg)
	return m
}

func (m *toy) add(r int) {
	m.live = applyToy(m.live, r)
	m.log.Append(r)
}

// drive runs fn as the test's foreground process and drains the kernel. fn
// must end by stopping the log: an unstopped checkpoint daemon keeps env.Run
// alive forever, and a flush daemon left parked reads as a deadlock.
func (m *toy) drive(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	m.env.Go("driver", fn)
	if _, err := m.env.Run(0); err != nil {
		t.Errorf("kernel did not drain cleanly: %v", err)
	}
}

func TestPendingRecordsFlushAsOneBatch(t *testing.T) {
	m := newToy(Config{}, nil)
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		want := 0
		for _, r := range []int{1, 20, 300} {
			m.add(r) // no yield between appends: one pending batch
			want += len(renderToy(r))
		}
		p.Sleep(100 * time.Millisecond) // the flush daemon's turn, disk time included
		st := m.log.Stats()
		if st.JournalRecords != 3 || st.JournalBatches != 1 || st.JournalBytes != uint64(want) {
			t.Errorf("after one burst: %+v, want 3 records in 1 batch of %d bytes", st, want)
		}
		if got := m.vol.Size("toy_journal"); got != int64(want) {
			t.Errorf("journal file holds %d bytes, want %d", got, want)
		}
		m.log.Flush(p) // nothing pending: not a batch
		if st := m.log.Stats(); st.JournalBatches != 1 {
			t.Errorf("empty flush counted as a batch: %+v", st)
		}
	})
}

func TestCheckpointRollsJournalIntoImage(t *testing.T) {
	skip := true
	m := newToy(Config{CheckpointInterval: time.Second}, func(time.Duration) bool { return !skip })
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		m.add(7)
		m.add(35)
		p.Sleep(1500 * time.Millisecond) // first tick, vetoed by the hook
		if st := m.log.Stats(); st.Checkpoints != 0 {
			t.Fatalf("checkpoint ran on a tick the hook skipped: %+v", st)
		}
		skip = false
		p.Sleep(time.Second) // second tick
		st := m.log.Stats()
		if st.Checkpoints != 1 || st.CheckpointBytes != uint64(len("n 2\nsum 42\n")) {
			t.Errorf("after one checkpoint: %+v, want 1 checkpoint of %d bytes", st, len("n 2\nsum 42\n"))
		}
		if _, recs := m.log.peek(); len(recs) != 0 {
			t.Errorf("a restart would replay %v after a checkpoint, want nothing", recs)
		}
		if got := m.vol.Size("toy_journal"); got != 0 {
			t.Errorf("journal file holds %d bytes after a checkpoint, want a fresh empty file", got)
		}
		if got := string(m.vol.Peek("toy_image")); got != "n 2\nsum 42\n" {
			t.Errorf("image = %q, want %q", got, "n 2\nsum 42\n")
		}
		m.add(8)
		p.Sleep(time.Second) // third tick rewrites the image
		if got := string(m.vol.Peek("toy_image")); got != "n 3\nsum 50\n" {
			t.Errorf("image after second checkpoint = %q, want %q", got, "n 3\nsum 50\n")
		}
	})
}

func TestCrashHoldsBytesRestartReplaysThem(t *testing.T) {
	m := newToy(Config{CheckpointInterval: time.Second}, nil)
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		m.add(1)
		p.Sleep(1500 * time.Millisecond) // flushed, then rolled into the image
		m.add(2)
		p.Sleep(100 * time.Millisecond) // flushed to the fresh journal
		m.log.Crash()
		m.log.Crash() // idempotent
		if !m.log.Down() {
			t.Fatal("Crash left the master up")
		}
		before := m.log.Stats()
		m.add(3)
		p.Sleep(2 * time.Second) // two checkpoint ticks pass, both idle
		st := m.log.Stats()
		if st.JournalBatches != before.JournalBatches || st.Checkpoints != before.Checkpoints {
			t.Errorf("bytes reached the disk while crashed: before %+v, after %+v", before, st)
		}
		if _, got := m.log.peek(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Errorf("a restart would replay %v, want [2 3] (appends survive the crash)", got)
		}

		wantBytes := m.vol.Size("toy_image") + m.vol.Size("toy_journal")
		recovered := false
		if got := m.log.Replayed(); got != m.live {
			t.Errorf("a restart would rebuild %+v from the bytes, live state %+v", got, m.live)
		}
		m.log.Restart(p, func() {
			recovered = true
			if m.log.Down() {
				t.Error("reconcile ran with the master still down")
			}
		})
		st = m.log.Stats()
		if !recovered || st.Restarts != 1 {
			t.Errorf("recovered=%v Restarts=%d, want true and 1", recovered, st.Restarts)
		}
		if st.ReplayBytes != uint64(wantBytes) || st.ReplayRecords != 2 {
			t.Errorf("replay charged %d bytes / %d records, want %d / 2", st.ReplayBytes, st.ReplayRecords, wantBytes)
		}
		m.log.Restart(p, func() { t.Error("Restart on a serving master ran its reconcile") })
		p.Sleep(100 * time.Millisecond)
		if st := m.log.Stats(); st.JournalBatches != before.JournalBatches+1 {
			t.Errorf("record logged during the outage was not flushed after restart: %+v", st)
		}
	})
}

// TestCheckpointCoveredRecordsAreNotReplayed: records logged while the
// checkpoint's flush blocks are in its image and reach the fresh journal
// after it. A restart must skip them — one that applied them again would
// count them twice.
func TestCheckpointCoveredRecordsAreNotReplayed(t *testing.T) {
	var m *toy
	m = newToy(Config{CheckpointInterval: time.Second}, func(time.Duration) bool {
		m.add(5) // pending at the tick: the checkpoint's flush has a batch to block on
		return true
	})
	restart := func(p *sim.Proc) {
		if image, records := m.log.peek(); m.log.Replayed() != m.live {
			t.Errorf("a restart would rebuild %+v from image %q and records %v, live state %+v",
				m.log.Replayed(), image, records, m.live)
		}
		m.log.Restart(p, func() {}) // panics on a divergent replay
	}
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		m.add(1)
		p.Sleep(time.Second + time.Microsecond) // the checkpoint's flush of [5] is on the disk
		m.add(20)
		m.add(300)
		m.log.Crash() // the flush daemon idles: 20 and 300 stay pending
		if st := m.log.Stats(); st.Checkpoints != 0 {
			t.Fatalf("checkpoint finished before the records it should cover: %+v", st)
		}
		p.Sleep(100 * time.Millisecond)
		if got := string(m.vol.Peek("toy_image")); got != "n 4\nsum 326\n" {
			t.Fatalf("image = %q, want %q: it holds the records logged during its flush", got, "n 4\nsum 326\n")
		}
		restart(p) // the covered records are still pending
		if st := m.log.Stats(); st.ReplayRecords != 0 {
			t.Errorf("first restart replayed %d records, want 0 (the image holds both)", st.ReplayRecords)
		}
		m.add(4000)
		p.Sleep(100 * time.Millisecond)
		if got := string(m.vol.Peek("toy_journal")); got != "add 20\nadd 300\nadd 4000\n" {
			t.Fatalf("journal = %q, want the covered records ahead of the new one", got)
		}
		m.log.Crash()
		restart(p) // now the covered records are in the file
		if st := m.log.Stats(); st.ReplayRecords != 1 {
			t.Errorf("restarts replayed %d records in all, want 1 (only 4000 is after the image)", st.ReplayRecords)
		}
		if got := m.log.Replayed(); got != m.live {
			t.Errorf("Replayed = %+v, live state %+v", got, m.live)
		}
	})
}

// TestRestartPanicsOnDivergentReplay: a live change the journal never saw
// makes the state rebuilt from the bytes differ from the live one. The
// restart must panic naming the first image line where they part, before
// the master's reconcile runs.
func TestRestartPanicsOnDivergentReplay(t *testing.T) {
	m := newToy(Config{}, nil)
	var got any
	reconciled := false
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		defer func() { got = recover() }()
		m.add(1)
		m.add(2)
		p.Sleep(100 * time.Millisecond) // both flushed
		m.live.sum += 10                // never journaled: line 1 agrees, line 2 does not
		m.log.Crash()
		m.log.Restart(p, func() { reconciled = true })
	})
	want := "toy: replayed state diverges from live at image line 2:\n replayed \"sum 3\"\n live     \"sum 13\""
	if got != want {
		t.Errorf("restart panicked with %v, want %q", got, want)
	}
	if reconciled {
		t.Error("reconcile ran after a divergent replay")
	}
}

func TestStallCountsOneStallAndItsFullWait(t *testing.T) {
	m := newToy(Config{RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond}, nil)
	var waited time.Duration
	m.env.Go("caller", func(p *sim.Proc) {
		m.log.Stall(p, m.log.Down) // serving: free and uncounted
		if st := m.log.Stats(); st.Stalls != 0 || p.Now() != 0 {
			t.Errorf("caller of a serving master stalled: %+v at %v", st, p.Now())
		}
		p.Sleep(time.Millisecond)
		start := p.Now()
		m.log.Stall(p, m.log.Down)
		waited = p.Now() - start
	})
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		m.log.Crash()
		p.Sleep(20 * time.Millisecond)
		m.log.Restart(p, func() {})
		p.Sleep(10 * time.Millisecond) // the caller's last backoff step ends
	})
	st := m.log.Stats()
	if st.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1 (retries are not new stalls)", st.Stalls)
	}
	if waited < 19*time.Millisecond || st.StallTime != waited {
		t.Errorf("StallTime = %v, caller waited %v, outage was 20ms from its start", st.StallTime, waited)
	}
}

func TestStopReleasesEveryone(t *testing.T) {
	m := newToy(Config{}, nil)
	released := 0
	m.env.Go("stalled", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.log.Stall(p, m.log.Down)
		released++
	})
	m.env.Go("waiting", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.log.WaitReady(p, m.log.Down)
		released++
	})
	m.drive(t, func(p *sim.Proc) {
		m.log.Crash()
		p.Sleep(time.Second)
		m.log.Stop() // still down: only Stop can release them
		m.log.Stop()
	})
	// drive returning without a deadlock is the daemons' half of the
	// contract: both exited, so nothing keeps the kernel alive.
	if released != 2 {
		t.Errorf("%d of 2 blocked callers released by Stop", released)
	}
}

func TestNotifyReadyRechecksWaiters(t *testing.T) {
	m := newToy(Config{}, nil)
	gate := true
	var wokeAt time.Duration
	m.env.Go("waiting", func(p *sim.Proc) {
		m.log.WaitReady(p, func() bool { return gate })
		wokeAt = p.Now()
	})
	m.drive(t, func(p *sim.Proc) {
		defer m.log.Stop()
		p.Sleep(time.Millisecond)
		m.log.NotifyReady() // condition still holds: waiter parks again
		p.Sleep(time.Millisecond)
		gate = false
		m.log.NotifyReady()
		p.Sleep(time.Millisecond)
	})
	if wokeAt != 2*time.Millisecond {
		t.Errorf("waiter released at %v, want 2ms (when its condition cleared)", wokeAt)
	}
}
