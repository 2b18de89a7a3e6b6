package sim

import (
	"slices"
	"time"
)

// Resource is a counted resource (e.g. CPU cores, task slots, a bandwidth
// token pool) with strict FIFO admission in virtual time.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  []resWaiter

	busyTime  time.Duration // integral of inUse over time
	lastTouch time.Duration
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

func (r *Resource) accrue() {
	now := r.env.now
	r.busyTime += time.Duration(r.inUse) * (now - r.lastTouch)
	r.lastTouch = now
}

// Acquire blocks p until n units are available and then takes them.
// Admission is FIFO: a large request at the head blocks later small ones,
// preventing starvation. n must be within capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("sim: acquire exceeds capacity on " + r.name)
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.accrue()
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, resWaiter{p: p, n: n})
	p.block() // the releaser grants our units before waking us
}

// Release returns n units and admits as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	if r.inUse < n {
		panic("sim: release of more than in use on " + r.name)
	}
	r.accrue()
	r.inUse -= n
	k := 0
	for ; k < len(r.waiters); k++ {
		w := r.waiters[k]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.env.wake(w.p)
	}
	r.waiters = slices.Delete(r.waiters, 0, k) // in place: Acquire reuses the array
}

// Use acquires n units, sleeps for d, and releases them — the common
// "hold a resource while time passes" idiom.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// BusyTime returns the cumulative integral of held units over time — the
// raw counter behind utilization sampling (one unit held for one second
// contributes one second).
func (r *Resource) BusyTime() time.Duration {
	r.accrue()
	return r.busyTime
}

// Cond is a broadcast condition variable in virtual time.
type Cond struct {
	env     *Env
	waiters waitList
}

// NewCond creates a condition variable.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait blocks p until the next Broadcast. As with sync.Cond, callers should
// re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.add(waiter{p: p})
	p.block()
}

// Then registers fn to run at the next Broadcast, in the event slot a
// process waiting from this moment would be resumed in (see Event.Then).
// fn must not block; a callback that waits again registers itself again.
func (c *Cond) Then(fn func()) { c.waiters.add(waiter{fn: fn}) }

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() { c.waiters.release(c.env) }

// Event is a one-shot completion event: processes Wait on it, callbacks are
// registered with Then, and a single Fire releases them all. Waiting on an
// already-fired event returns immediately. It is the natural completion
// primitive for asynchronous operations such as block-layer requests.
type Event struct {
	env     *Env
	fired   bool
	waiters waitList
}

// waiter is a process to resume (p) or a callback to run (fn).
type waiter struct {
	p  *Proc
	fn func()
}

// waitList holds waiters in registration order: the first inline, the rest
// in more. Most lists never hold a second, so waiting costs no allocation.
type waitList struct {
	first waiter
	more  []waiter
}

func (l *waitList) add(w waiter) {
	if l.first.p == nil && l.first.fn == nil {
		l.first = w
	} else {
		l.more = append(l.more, w)
	}
}

// release schedules every waiter at the current time, in order — a process's
// resume, or a callback in the slot that resume would take — and empties the
// list, keeping the overflow's array for the next round.
func (l *waitList) release(e *Env) {
	for i := -1; i < len(l.more); i++ {
		w := l.first
		if i >= 0 {
			w = l.more[i]
		}
		if w.p != nil {
			e.wake(w.p)
		} else if w.fn != nil {
			e.After(0, w.fn)
		}
	}
	l.first = waiter{}
	clear(l.more)
	l.more = l.more[:0]
}

// Init makes ev an unfired event of env, in place: an Event lives inside
// the record of the operation it completes.
func (ev *Event) Init(env *Env) { *ev = Event{env: env} }

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters.add(waiter{p: p})
	p.block()
}

// Then registers fn to run when the event fires. Fire schedules it as a
// zero-delay callback in its registration slot, exactly where a waiting
// process's resume would land, so a process that only waits and then acts
// can become a callback without moving any event. On a fired event fn runs
// at once, as Wait returns at once. fn must not block.
func (ev *Event) Then(fn func()) {
	if ev.fired {
		fn()
		return
	}
	ev.waiters.add(waiter{fn: fn})
}

// Fire marks the event fired and releases all waiters in registration
// order. Firing twice panics — it would indicate double completion of an
// operation.
func (ev *Event) Fire() {
	if ev.fired {
		panic("sim: Event fired twice")
	}
	ev.fired = true
	ev.waiters.release(ev.env)
}
