// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and runs simulated activities
// ("processes") as coroutines (iter.Pull) of the goroutine that calls Run:
// at any moment exactly one of them, or Run itself, touches the
// environment. There is no kernel goroutine. Whichever party gives up the
// CPU (a process that blocks, sleeps or finishes, or Run itself once to
// start) pops and fires the next events on its own stack: callbacks run
// inline, and the first event that resumes a process ends the loop. If that
// process is the caller, it simply carries on — no switch at all; otherwise
// the caller records it as the next process and yields to Run, which
// resumes it: a coroutine switch out and one in, neither through the Go
// scheduler. Events with equal timestamps fire in the order they were
// scheduled, so a simulation is fully deterministic for a given program and
// seed. A heap keeps that (time, seq) order for events due later; an event
// due at the instant it is scheduled (a wake, Sleep(0), After(0), a released
// waiter) skips it for a FIFO. An Event's or Cond's first waiter is held
// inline, so one waiter costs no allocation, and an Event can live inside
// the record of the operation it completes (Event.Init).
//
// An activity that never waits in the middle of its work needs no stack of
// its own: it is an After chain, or a callback on an Event or Cond (Then),
// rather than a process. Each takes the event slot a process's resume would
// have taken, so converting one moves no event.
//
// Every process and every After callback runs as a coroutine of Run's
// goroutine (or of Close's, while Close unwinds), so a panic in either — or
// a runtime.Goexit, as t.Fatal calls — propagates out of Run to its caller.
// An environment left that way can only be Closed.
//
// Processes that have not finished stay parked after Run returns; Close
// unwinds them. Dropped without Close, an environment leaks their goroutines
// and all they reference, but one whose processes have all finished holds no
// goroutine (a daemon written as callbacks parks none) and is collected.
//
// A process is any function with signature func(*Proc). Within a process,
// virtual time passes only through blocking operations: Sleep, Resource
// acquisition, Cond.Wait, Event.Wait or Handle.Wait. Plain computation
// between blocking calls is instantaneous in virtual time (charge it
// explicitly with Sleep if it should cost simulated CPU time).
package sim

import (
	"context"
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Env is a discrete-event simulation environment. Create one with New, spawn
// processes with Go, then call Run to execute until no events remain.
type Env struct {
	now        time.Duration
	seq        uint64
	events     eventHeap // events that were due after the clock's reading when scheduled
	present    []event   // events that were due at it: all due now, in seq order
	head       int       // present[head:] are pending; the slice resets when they run out
	running    bool
	closing    bool    // Close has begun: dispatch fires nothing, park panics procKilled
	blocked    int     // non-daemon processes waiting on a wakeup that is NOT queued
	procs      []*Proc // spawned processes that have not finished; Proc.slot is the index
	dispatched uint64  // events popped and fired since New
	rng        *rand.Rand

	// The current Run's parameters and outcome.
	limit      time.Duration
	ctx        context.Context
	sinceCheck int   // events since ctx was last polled
	stopErr    error // ctx's error, once dispatch has seen it
	next       *Proc // the process dispatch chose to run next: Run resumes it
}

// New returns an empty environment whose clock starts at zero. The seed
// drives Env.Rand, the only source of randomness the kernel offers; two runs
// with the same seed and the same process program are identical.
func New(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from process context (never concurrently), which the kernel's
// serialization guarantees.
func (e *Env) Rand() *rand.Rand { return e.rng }

// event is a scheduled occurrence: either a process wakeup or a callback.
type event struct {
	at  time.Duration
	seq uint64
	p   *Proc  // non-nil: resume this process
	fn  func() // non-nil: run inline by the dispatching party (must not block)
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than built on container/heap: the standard interface boxes every
// pushed and popped element into an interface value, which costs two heap
// allocations per scheduled event — the simulator's single hottest
// allocation site. Operating on the slice directly keeps the kernel's
// scheduling path allocation-free apart from amortized slice growth.
type eventHeap []event

func (a *event) before(b *event) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

// push appends ev and restores the heap invariant (sift-up).
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down).
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop references held by the vacated slot
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s.less(r, l) {
			min = r
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

func (e *Env) at(d time.Duration) time.Duration { return e.now + d }

// schedule gives ev the next seq and queues it, an event due now at the back
// of present. (at, seq) order holds across both queues: an event in present
// has a larger seq than any in the heap due now, and the clock cannot
// advance while present holds one.
func (e *Env) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	if ev.at == e.now {
		e.present = append(e.present, ev)
	} else {
		e.events.push(ev)
	}
}

// pop removes the earliest pending event by (at, seq): the heap's top or
// present's head.
func (e *Env) pop() event {
	if len(e.present) == 0 || len(e.events) > 0 && e.events[0].before(&e.present[e.head]) {
		return e.events.pop()
	}
	ev := e.present[e.head]
	e.present[e.head] = event{} // drop references held by the vacated slot
	if e.head++; e.head == len(e.present) {
		e.present, e.head = e.present[:0], 0
	}
	return ev
}

// Proc is the handle a running process uses to interact with virtual time.
type Proc struct {
	env    *Env
	name   string
	resume func() (struct{}, bool) // runs the coroutine until it parks or finishes
	yield  func(struct{}) bool     // parks the coroutine: resume returns
	daemon bool

	killed  bool  // Close is unwinding the process at its resume point
	blocked bool  // parked on a wait list, with no wakeup queued
	slot    int32 // index in Env.procs while live (32 bits: shares a word with the flags)
}

// procKilled is the panic value with which Close unwinds a process.
// The spawn wrapper recovers it and turns it into a normal process exit, so
// the process's own defers run — the supported way to release held resources.
type procKilled struct{}

// SetDaemon marks the process as a daemon: a service loop (the HDFS
// scrubber) that legitimately blocks forever once the simulation drains.
// Daemons are excluded from deadlock detection.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Handle lets other processes wait for a spawned process to finish.
type Handle struct {
	done    bool
	waiters []*Proc
}

// Wait blocks the calling process until the handle's process finishes.
func (h *Handle) Wait(p *Proc) {
	if h.done {
		return
	}
	h.waiters = append(h.waiters, p)
	p.block()
}

// Go spawns fn as a new process starting at the current virtual time.
// It may be called before Run, or from inside a running process.
func (e *Env) Go(name string, fn func(*Proc)) *Handle {
	h := &Handle{}
	p := &Proc{env: e, name: name}
	p.slot = int32(len(e.procs))
	e.procs = append(e.procs, p)
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// The exit is deferred so that a process that panics, calls
		// runtime.Goexit or is unwound by Close still leaves the registry and
		// releases its waiters. Only a process that returned dispatches on:
		// Close's procKilled panic ends quietly, and any other panic is
		// re-raised, which resume carries (as it does a Goexit) to Run's
		// caller without firing another event.
		returned := false
		defer func() {
			r := recover()
			last := len(e.procs) - 1 // leave the registry: the last entry takes p's slot
			e.procs[p.slot] = e.procs[last]
			e.procs[p.slot].slot = p.slot
			e.procs[last] = nil
			e.procs = e.procs[:last]
			h.done = true
			for _, w := range h.waiters {
				e.wake(w)
			}
			h.waiters = nil
			if _, killed := r.(procKilled); r != nil && !killed {
				panic(r)
			}
			if returned {
				e.dispatch(p) // a finished process is never resumed: its coroutine ends here
			}
		}()
		if !p.killed { // closed before its first run: die without executing fn
			fn(p)
		}
		returned = true
	})
	e.schedule(event{at: e.now, p: p})
	return h
}

// After schedules fn to run after d elapses, inline in whichever process (or
// Run) is dispatching events at that moment (see the package comment). fn
// must not block; use Go for anything that needs to wait part-way through.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(event{at: e.at(d), fn: fn})
}

// wake schedules p to resume at the current time.
func (e *Env) wake(p *Proc) {
	if !p.daemon {
		e.blocked--
	}
	e.schedule(event{at: e.now, p: p})
}

// dispatch is the event loop. It is called by the party that is about to
// give up the CPU — self is its process, or nil for Run — and fires events
// until one of them resumes a process. It returns true when that process is
// self: the caller carries on without a switch. Otherwise it has recorded the
// process in e.next (nil when no event was left, the limit was reached, ctx
// was cancelled or the environment is closing), and the caller must touch
// nothing of the environment until its own resume arrives.
func (e *Env) dispatch(self *Proc) bool {
	for len(e.events)+len(e.present) > 0 && !e.closing {
		if e.ctx != nil {
			if e.sinceCheck++; e.sinceCheck >= cancelStride {
				e.sinceCheck = 0
				if e.stopErr = e.ctx.Err(); e.stopErr != nil {
					break
				}
			}
		}
		ev := e.pop()
		if e.limit > 0 && ev.at > e.limit {
			e.now = e.limit
			e.events.push(ev)
			for _, ev := range e.present[e.head:] { // only a limit behind the clock leaves any
				e.events.push(ev)
			}
			e.present, e.head = e.present[:0], 0
			break
		}
		e.now = ev.at
		e.dispatched++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.p == self {
			return true
		}
		e.next = ev.p
		return false
	}
	return false
}

// park gives up the CPU until the process's next resume, which the caller
// has arranged (a scheduled event, or a waiter list some other party wakes).
func (p *Proc) park() {
	if p.env.closing {
		// Entered from a defer while Close unwinds this process: there is no
		// virtual time left to wait in.
		panic(procKilled{})
	}
	if !p.env.dispatch(p) {
		p.yield(struct{}{})
	}
}

// block parks until some other party calls wake. The caller must have
// arranged for the wakeup (waiter list, etc.).
func (p *Proc) block() {
	if !p.daemon {
		p.env.blocked++
	}
	p.blocked = true
	p.park()
	p.blocked = false
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d of virtual time. Negative d sleeps 0.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.schedule(event{at: e.at(d), p: p})
	p.park()
	if p.killed {
		panic(procKilled{})
	}
}

// DeadlockError reports a simulation deadlock: the event queues drained while
// non-daemon processes remained blocked with no pending wakeup. Blocked
// lists the stuck processes' names, sorted, so a harness can record the
// deadlock as a finding instead of crashing.
type DeadlockError struct {
	At      time.Duration // virtual time at which the simulation stalled
	Blocked []string      // names of the blocked non-daemon processes, sorted
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock: %d process(es) blocked with no pending events at t=%v", len(d.Blocked), d.At)
	if len(d.Blocked) > 0 {
		b.WriteString(" [")
		b.WriteString(strings.Join(d.Blocked, ", "))
		b.WriteString("]")
	}
	return b.String()
}

// Run executes the simulation until no event is left or until limit
// (if positive) is reached. It returns the final virtual time. If processes
// remain blocked with no pending events — a simulation deadlock — Run
// returns a *DeadlockError naming them.
func (e *Env) Run(limit time.Duration) (time.Duration, error) {
	return e.run(nil, limit)
}

// cancelStride is how many events dispatch fires between cancellation polls.
// ctx.Err takes a lock and an event can cost as little as a heap pop, so
// polling every event would show; every few hundred costs nothing measurable
// while keeping cancellation latency far below any human-visible delay.
const cancelStride = 256

// RunContext executes like Run (including returning *DeadlockError on a
// simulation deadlock) but polls ctx between events and stops early
// when it is cancelled, returning ctx's error. Cancellation abandons the
// simulation mid-flight: the virtual clock stays where it was and every
// unfinished process stays parked — a cancelled environment must not be
// resumed, only Closed.
func (e *Env) RunContext(ctx context.Context, limit time.Duration) (time.Duration, error) {
	return e.run(ctx, limit)
}

func (e *Env) run(ctx context.Context, limit time.Duration) (time.Duration, error) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	if e.closing {
		panic("sim: Run after Close")
	}
	e.running = true
	defer func() { e.running = false }()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return e.now, err
		}
	}
	e.limit, e.ctx, e.sinceCheck, e.stopErr = limit, ctx, 0, nil
	e.dispatch(nil)
	for p := e.next; p != nil; p = e.next {
		e.next = nil
		p.resume()
	}
	e.ctx = nil
	if e.stopErr != nil {
		return e.now, e.stopErr
	}
	if len(e.events)+len(e.present) == 0 && e.blocked > 0 {
		var names []string
		for _, p := range e.procs {
			if p.blocked && !p.daemon {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return e.now, &DeadlockError{At: e.now, Blocked: names}
	}
	return e.now, nil
}

// Close ends the environment: every process that has not finished — parked
// daemons, processes a limit, a cancellation or a deadlock left mid-flight,
// processes that never started — is unwound by a panic at the point where it
// is parked, so its defers run, one process at a time, and by the time Close
// returns every process's goroutine has ended. No event fires and no virtual
// time passes; a deferred function that tries to
// Sleep or block during the unwind is itself unwound. Close must not be
// called from inside Run, and a closed environment must not be run again.
// Closing twice is a no-op.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close called during Run")
	}
	e.closing = true
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		p.killed = true
		p.resume()
	}
	e.events, e.present, e.head = nil, nil, 0
}

// Live returns the number of spawned processes that have not finished.
func (e *Env) Live() int { return len(e.procs) }

// Events returns the cumulative number of events dispatched by Run since the
// environment was created — the kernel-throughput denominator behind the
// benchmark harness's events/sec metric.
func (e *Env) Events() uint64 { return e.dispatched }
