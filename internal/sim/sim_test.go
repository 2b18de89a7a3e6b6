package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	end, _ := e.Run(0)
	if at != 5*time.Millisecond {
		t.Errorf("process observed %v, want 5ms", at)
	}
	if end != 5*time.Millisecond {
		t.Errorf("Run returned %v, want 5ms", end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) { p.Sleep(-time.Second) })
	if end, _ := e.Run(0); end != 0 {
		t.Errorf("end = %v, want 0", end)
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, v, i, order)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New(1)
	var childRan bool
	var childAt time.Duration
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Second)
		h := e.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
			childAt = c.Now()
		})
		h.Wait(p)
		if !childRan {
			t.Error("Wait returned before child finished")
		}
	})
	e.Run(0)
	if childAt != 2*time.Second {
		t.Errorf("child finished at %v, want 2s", childAt)
	}
}

func TestWaitOnFinishedHandleReturnsImmediately(t *testing.T) {
	e := New(1)
	h := e.Go("fast", func(p *Proc) {})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Minute)
		before := p.Now()
		h.Wait(p)
		if p.Now() != before {
			t.Error("Wait on done handle advanced time")
		}
	})
	e.Run(0)
	if !h.done {
		t.Error("handle not done after Run")
	}
}

func TestMultipleWaitersOnHandle(t *testing.T) {
	e := New(1)
	h := e.Go("worker", func(p *Proc) { p.Sleep(3 * time.Second) })
	got := make([]time.Duration, 2)
	for i := range got {
		i := i
		e.Go("waiter", func(p *Proc) {
			h.Wait(p)
			got[i] = p.Now()
		})
	}
	e.Run(0)
	for i, g := range got {
		if g != 3*time.Second {
			t.Errorf("waiter %d resumed at %v, want 3s", i, g)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	e := New(1)
	var fired time.Duration = -1
	e.After(7*time.Second, func() { fired = e.Now() })
	e.Run(0)
	if fired != 7*time.Second {
		t.Errorf("callback at %v, want 7s", fired)
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	e := New(1)
	var lastSeen time.Duration
	e.Go("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			lastSeen = p.Now()
		}
	})
	end, _ := e.Run(10 * time.Second)
	if end != 10*time.Second {
		t.Errorf("Run returned %v, want 10s", end)
	}
	if lastSeen != 10*time.Second {
		t.Errorf("last progress %v, want 10s", lastSeen)
	}
	// Resuming must finish the remaining work.
	end, _ = e.Run(0)
	if end != 100*time.Second {
		t.Errorf("resumed Run returned %v, want 100s", end)
	}
}

func TestDeadlockReturnsError(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	e.Go("also-stuck", func(p *Proc) { c.Wait(p) })
	_, err := e.Run(0)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error is %T, want *DeadlockError", err)
	}
	want := "sim: deadlock: 2 process(es) blocked with no pending events at t=0s [also-stuck, stuck]"
	if err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
	if len(dl.Blocked) != 2 || dl.Blocked[0] != "also-stuck" || dl.Blocked[1] != "stuck" {
		t.Errorf("Blocked = %v, want [also-stuck stuck]", dl.Blocked)
	}
}

func TestResourceSerializesAtCapacity(t *testing.T) {
	e := New(1)
	r := NewResource(e, "disk", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 1, time.Second)
			finish = append(finish, p.Now())
		})
	}
	e.Run(0)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestResourceParallelismWithinCapacity(t *testing.T) {
	e := New(1)
	r := NewResource(e, "cores", 4)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Use(p, 1, time.Second)
			finish = append(finish, p.Now())
		})
	}
	e.Run(0)
	for i, f := range finish {
		if f != time.Second {
			t.Errorf("finish[%d] = %v, want 1s (no queueing expected)", i, f)
		}
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	e := New(1)
	r := NewResource(e, "mem", 4)
	var order []string
	e.Go("big-then-small", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(time.Second)
		r.Release(4)
		order = append(order, "first")
	})
	e.Go("big", func(p *Proc) {
		r.Acquire(p, 4) // queues behind first
		order = append(order, "big")
		p.Sleep(time.Second)
		r.Release(4)
	})
	e.Go("small", func(p *Proc) {
		r.Acquire(p, 1) // must NOT jump ahead of big
		order = append(order, "small")
		r.Release(1)
	})
	e.Run(0)
	if len(order) != 3 || order[1] != "big" {
		t.Errorf("order = %v, want big admitted before small", order)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := New(1)
	r := NewResource(e, "x", 2)
	e.Go("u", func(p *Proc) {
		r.Use(p, 1, time.Second)
		p.Sleep(time.Second)
	})
	e.Run(0)
	// 1 of 2 units held for 1s out of a 2s run: one unit-second busy, which a
	// sampler dividing by capacity × elapsed reads as 25 % utilization.
	if busy := r.BusyTime(); busy != time.Second {
		t.Errorf("busy time = %v, want 1s", busy)
	}
}

func TestResourceAvgWait(t *testing.T) {
	e := New(1)
	r := NewResource(e, "x", 1)
	var waited time.Duration
	for i := 0; i < 2; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p, 1)
			waited += p.Now()
			p.Sleep(time.Second)
			r.Release(1)
		})
	}
	e.Run(0)
	// First waits 0, second waits 1s: average 500ms.
	if avg := waited / 2; avg != 500*time.Millisecond {
		t.Errorf("avg wait = %v, want 500ms", avg)
	}
}

func TestAcquireBeyondCapacityPanics(t *testing.T) {
	e := New(1)
	r := NewResource(e, "x", 1)
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.Acquire(p, 2)
	})
	e.Run(0)
}

// testChan is the unbounded FIFO queue the kernel offered until nothing but
// tests used it, kept here because randomOpsTrace's recorded sequences were
// taken over it: Put never blocks and wakes one getter, Get blocks until an
// item arrives or the channel is closed and drained.
type testChan struct {
	env     *Env
	items   []any
	getters []*Proc
	closed  bool
}

func (c *testChan) wakeOne() {
	if len(c.getters) > 0 {
		g := c.getters[0]
		c.getters = c.getters[1:]
		c.env.wake(g)
	}
}

func (c *testChan) Put(v any) {
	c.items = append(c.items, v)
	c.wakeOne()
}

func (c *testChan) Close() {
	c.closed = true
	for len(c.getters) > 0 {
		c.wakeOne()
	}
}

func (c *testChan) Get(p *Proc) (any, bool) {
	for len(c.items) == 0 {
		if c.closed {
			return nil, false
		}
		c.getters = append(c.getters, p)
		p.block()
	}
	v := c.items[0]
	c.items = c.items[1:]
	// If items remain and other getters wait, wake the next so a burst of
	// Puts wakes every waiter it can serve.
	if len(c.items) > 0 {
		c.wakeOne()
	}
	return v, true
}

func TestChanFIFODelivery(t *testing.T) {
	e := New(1)
	c := &testChan{env: e}
	var got []int
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := c.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			c.Put(i)
		}
		c.Close()
	})
	e.Run(0)
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestChanGetBlocksUntilPut(t *testing.T) {
	e := New(1)
	c := &testChan{env: e}
	var at time.Duration
	e.Go("consumer", func(p *Proc) {
		c.Get(p)
		at = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(9 * time.Second)
		c.Put("x")
	})
	e.Run(0)
	if at != 9*time.Second {
		t.Errorf("consumer resumed at %v, want 9s", at)
	}
}

func TestChanCloseWakesAllGetters(t *testing.T) {
	e := New(1)
	c := &testChan{env: e}
	oks := []bool{true, true}
	for i := range oks {
		i := i
		e.Go("g", func(p *Proc) { _, oks[i] = c.Get(p) })
	}
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		c.Close()
	})
	e.Run(0)
	for i, ok := range oks {
		if ok {
			t.Errorf("getter %d saw ok=true after close of empty chan", i)
		}
	}
}

func TestChanBurstPutWakesAllServableGetters(t *testing.T) {
	e := New(1)
	c := &testChan{env: e}
	done := 0
	for i := 0; i < 3; i++ {
		e.Go("g", func(p *Proc) {
			if _, ok := c.Get(p); ok {
				done++
			}
		})
	}
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			c.Put(i)
		}
	})
	e.Run(0)
	if done != 3 {
		t.Errorf("served %d getters, want 3", done)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast()
	})
	e.Run(0)
	if woke != 4 {
		t.Errorf("woke = %d, want 4", woke)
	}
}

func TestLiveCount(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	if e.Live() != 1 {
		t.Fatalf("Live = %d before Run, want 1", e.Live())
	}
	e.Run(0)
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Run, want 0", e.Live())
	}
}

// Property: for any list of sleep durations, total elapsed time in a serial
// process equals the sum, and a parallel set of processes ends at the max.
func TestQuickSleepArithmetic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		var sum, max time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			sum += d
			if d > max {
				max = d
			}
		}
		// Serial.
		e := New(1)
		e.Go("serial", func(p *Proc) {
			for _, r := range raw {
				p.Sleep(time.Duration(r) * time.Microsecond)
			}
		})
		if got, _ := e.Run(0); got != sum {
			t.Logf("serial: got %v want %v", got, sum)
			return false
		}
		// Parallel.
		e2 := New(1)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			e2.Go("par", func(p *Proc) { p.Sleep(d) })
		}
		if got, _ := e2.Run(0); got != max {
			t.Logf("parallel: got %v want %v", got, max)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a capacity-1 resource used by N processes for d each finishes at
// exactly N*d — perfect serialization with no lost or duplicated time.
func TestQuickResourceSerialization(t *testing.T) {
	f := func(n uint8, durUS uint16) bool {
		procs := int(n%8) + 1
		d := time.Duration(durUS%1000+1) * time.Microsecond
		e := New(1)
		r := NewResource(e, "x", 1)
		for i := 0; i < procs; i++ {
			e.Go("u", func(p *Proc) { r.Use(p, 1, d) })
		}
		got, _ := e.Run(0)
		return got == time.Duration(procs)*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() []time.Duration {
		e := New(42)
		r := NewResource(e, "x", 2)
		var finishes []time.Duration
		for i := 0; i < 6; i++ {
			e.Go("u", func(p *Proc) {
				jitter := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
				p.Sleep(jitter)
				r.Use(p, 1, time.Millisecond)
				finishes = append(finishes, p.Now())
			})
		}
		e.Run(0)
		return finishes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// newEvent returns an unfired event of its own, for tests that share one
// between processes by pointer.
func newEvent(e *Env) *Event {
	ev := new(Event)
	ev.Init(e)
	return ev
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := New(1)
	ev := newEvent(e)
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			ev.Wait(p)
			woke++
			if p.Now() != 2*time.Second {
				t.Errorf("woke at %v, want 2s", p.Now())
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		ev.Fire()
	})
	e.Run(0)
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	e := New(1)
	ev := newEvent(e)
	e.Go("p", func(p *Proc) {
		ev.Fire()
		before := p.Now()
		ev.Wait(p)
		if p.Now() != before {
			t.Error("Wait on fired event advanced time")
		}
		if !ev.fired {
			t.Error("Fired() should be true")
		}
	})
	e.Run(0)
}

// Process and callback waiters on one Event fire in registration order, and a
// callback registered from a zero-delay callback takes exactly the event
// slots a process spawned in its place would: its registration runs where
// the process's first resume did, its body where the process's wakeup did.
// Then on a fired event runs at once, as Wait returns at once.
func TestEventWaitersFireInRegistrationOrder(t *testing.T) {
	run := func(callbacks bool) []string {
		e := New(1)
		defer e.Close()
		ev := newEvent(e)
		var log []string
		note := func(who string) { log = append(log, fmt.Sprintf("%s@%v#%d", who, e.Now(), e.Events())) }
		for i := 0; i < 4; i++ {
			who := fmt.Sprintf("w%d", i)
			if callbacks && i%2 == 1 {
				e.After(0, func() { ev.Then(func() { note(who) }) })
			} else {
				e.Go(who, func(p *Proc) { ev.Wait(p); note(who) })
			}
		}
		e.Go("firer", func(p *Proc) {
			p.Sleep(time.Second)
			ev.Fire()
			note("fired")
			if callbacks {
				ev.Then(func() { note("late") })
			} else {
				ev.Wait(p)
				note("late")
			}
		})
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		note("end")
		return log
	}
	// Five starts, the firer's wakeup, then the four waiters in order.
	want := []string{"fired@1s#6", "late@1s#6", "w0@1s#7", "w1@1s#8", "w2@1s#9", "w3@1s#10", "end@1s#10"}
	for _, callbacks := range []bool{false, true} {
		if got := run(callbacks); !slices.Equal(got, want) {
			t.Errorf("callbacks=%v: %v, want %v", callbacks, got, want)
		}
	}
}

// Process and callback waiters on one Cond fire in registration order, and a
// callback that registers itself again takes the slots of a process that
// waits in a loop: the twin of TestEventWaitersFireInRegistrationOrder.
func TestCondWaitersFireInRegistrationOrder(t *testing.T) {
	run := func(callbacks bool) []string {
		e := New(1)
		defer e.Close()
		c := NewCond(e)
		var log []string
		note := func(who string) { log = append(log, fmt.Sprintf("%s@%v#%d", who, e.Now(), e.Events())) }
		for i := 0; i < 4; i++ {
			who := fmt.Sprintf("w%d", i)
			if callbacks && i%2 == 1 {
				woken := 0
				var wake func()
				wake = func() {
					note(who)
					if woken++; woken < 2 {
						c.Then(wake)
					}
				}
				e.After(0, func() { c.Then(wake) })
			} else {
				e.Go(who, func(p *Proc) {
					for k := 0; k < 2; k++ {
						c.Wait(p)
						note(who)
					}
				})
			}
		}
		e.Go("broadcaster", func(p *Proc) {
			for k := 0; k < 2; k++ {
				p.Sleep(time.Second)
				c.Broadcast()
				note("broadcast")
			}
		})
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		note("end")
		return log
	}
	// Five starts, then per second the broadcaster's wakeup and the four
	// waiters in order.
	want := []string{
		"broadcast@1s#6", "w0@1s#7", "w1@1s#8", "w2@1s#9", "w3@1s#10",
		"broadcast@2s#11", "w0@2s#12", "w1@2s#13", "w2@2s#14", "w3@2s#15", "end@2s#15",
	}
	for _, callbacks := range []bool{false, true} {
		if got := run(callbacks); !slices.Equal(got, want) {
			t.Errorf("callbacks=%v: %v, want %v", callbacks, got, want)
		}
	}
}

// An Event's only waiter, a process or a callback, is held inline: waiting
// costs no allocation. (Scheduling reuses the queues' arrays, which the
// warm-up run of AllocsPerRun grows.)
func TestOneWaiterAllocatesNothing(t *testing.T) {
	e := New(1)
	defer e.Close()
	var ev Event
	fire, noop := ev.Fire, func() {}
	var wait float64
	e.Go("waiter", func(p *Proc) {
		wait = testing.AllocsPerRun(100, func() {
			ev.Init(e)
			e.After(0, fire)
			ev.Wait(p)
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	then := testing.AllocsPerRun(100, func() {
		ev.Init(e)
		ev.Then(noop)
		e.After(0, fire)
		e.Run(0)
	})
	if wait != 0 || then != 0 {
		t.Errorf("one waiter allocates %v objects by Wait and %v by Then, want 0", wait, then)
	}
}

// A Resource hand-off reuses its waiter queue's array: once the queue has
// held a waiter, a contended Acquire and the Release that admits it allocate
// nothing.
func TestResourceHandoffAllocatesNothing(t *testing.T) {
	e := New(1)
	defer e.Close()
	res := NewResource(e, "unit", 1)
	handoff := func(p *Proc) {
		res.Acquire(p, 1)
		p.Sleep(time.Nanosecond)
		res.Release(1)
	}
	var allocs float64
	done := false
	e.Go("a", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() { handoff(p) })
		done = true
	})
	e.Go("b", func(p *Proc) {
		for !done {
			handoff(p)
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a Resource hand-off allocates %v objects, want 0", allocs)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	e := New(1)
	ev := newEvent(e)
	e.Go("p", func(p *Proc) {
		ev.Fire()
		defer func() {
			if recover() == nil {
				t.Error("want panic on double fire")
			}
		}()
		ev.Fire()
	})
	e.Run(0)
}

// A process that calls runtime.Goexit, as t.Fatal does inside one, ends the
// goroutine that called Run without Run returning; Close afterwards releases
// every goroutine, the parked survivor's included.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	before := settledGoroutines()
	e := New(1)
	e.Go("dies", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	e.Go("other", func(p *Proc) { p.Sleep(2 * time.Second) })
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run(0)
		returned = true
	}()
	<-exited
	if returned || e.Now() != time.Second || e.Live() != 1 {
		t.Errorf("returned=%v now=%v live=%d, want the Run goroutine gone at 1s with one process parked", returned, e.Now(), e.Live())
	}
	e.Close()
	if n := settledGoroutines(); n != before || e.Live() != 0 {
		t.Errorf("%d goroutines and %d processes after Close, started with %d goroutines", n, e.Live(), before)
	}
}

// A panic in a process, and one in an After callback that fires while a
// process is dispatching, each reach Run's caller, where recover sees it;
// Close then releases every goroutine.
func TestPanicSurfacesFromRun(t *testing.T) {
	before := settledGoroutines()
	for _, where := range []string{"process", "callback"} {
		e := New(1)
		e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		e.Go("victim", func(p *Proc) {
			p.Sleep(time.Second)
			if where == "process" {
				panic("boom in process")
			}
			e.After(0, func() { panic("boom in callback") })
			p.Sleep(time.Second) // fires the callback on this process's stack
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run(0)
			return nil
		}()
		if want := "boom in " + where; got != want || e.Now() != time.Second {
			t.Errorf("recovered %v at %v, want %q at 1s", got, e.Now(), want)
		}
		e.Close()
		if e.Live() != 0 {
			t.Errorf("%s: %d processes live after Close", where, e.Live())
		}
	}
	if n := settledGoroutines(); n != before {
		t.Errorf("%d goroutines after Close, started with %d", n, before)
	}
}

func TestKillBeforeFirstRunSkipsBody(t *testing.T) {
	// Close is the only killer left: a process it reaches before the process
	// ever ran must exit without executing its body.
	e := New(1)
	var ran bool
	h := e.Go("never", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Error("killed-before-start process ran")
	}
	if !h.done {
		t.Error("killed-before-start process not done")
	}
}

func TestRunContextCompletesUncancelled(t *testing.T) {
	e := New(1)
	e.Go("worker", func(p *Proc) { p.Sleep(5 * time.Second) })
	end, err := e.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 5*time.Second {
		t.Errorf("end = %v, want 5s", end)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	e := New(1)
	e.Go("worker", func(p *Proc) { p.Sleep(time.Second) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, 0); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v after pre-cancelled run", e.Now())
	}
}

func TestRunContextCancelsMidSimulation(t *testing.T) {
	e := New(1)
	// A long-lived ticker: without cancellation this simulates 1000 virtual
	// seconds across a million events.
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 1_000_000; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the simulation at a known virtual time; the loop
	// must notice within one poll stride.
	e.After(10*time.Second, cancel)
	end, err := e.RunContext(ctx, 0)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if end < 10*time.Second || end > 10*time.Second+2*cancelStride*time.Millisecond {
		t.Errorf("stopped at %v, want shortly after 10s", end)
	}
}

func TestRunAfterRunContextLimitResumes(t *testing.T) {
	// RunContext with a limit behaves like Run: it pauses, and a later call
	// resumes from the pause point.
	e := New(1)
	var done bool
	e.Go("worker", func(p *Proc) { p.Sleep(4 * time.Second); done = true })
	at, err := e.RunContext(context.Background(), 2*time.Second)
	if err != nil || at != 2*time.Second || done {
		t.Fatalf("pause: at=%v err=%v done=%v", at, err, done)
	}
	e.Run(0)
	if !done {
		t.Error("worker never finished after resume")
	}
}

// randomOpsTrace runs eight workers through 125 random operations each
// (Sleep, After, Resource.Use, Chan.Put) beside two consumers draining the
// Chan, and folds every step — who ran, what it did, at what virtual time —
// into one hash. Operations are drawn from Env.Rand as the run proceeds, so
// a single event fired out of order changes every later draw.
func randomOpsTrace(seed int64) (hash uint64, end time.Duration, events uint64) {
	e := New(seed)
	defer e.Close()
	h := fnv.New64a()
	step := func(who, op int) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(who))
		binary.LittleEndian.PutUint64(b[8:], uint64(op))
		binary.LittleEndian.PutUint64(b[16:], uint64(e.Now()))
		h.Write(b[:])
	}
	res := NewResource(e, "r", 2)
	c := &testChan{env: e}
	const workers, opsEach = 8, 125
	running := workers
	for w := 0; w < workers; w++ {
		w := w
		e.Go("worker", func(p *Proc) {
			for i := 0; i < opsEach; i++ {
				rng := e.Rand()
				d := time.Duration(rng.Intn(5)) * time.Microsecond
				switch op := rng.Intn(4); op {
				case 0:
					p.Sleep(d)
					step(w, op)
				case 1:
					e.After(d, func() { step(100+w, op) })
				case 2:
					res.Use(p, 1+rng.Intn(2), d)
					step(w, op)
				case 3:
					c.Put(w)
					step(w, op)
				}
			}
			if running--; running == 0 {
				c.Close()
			}
		})
	}
	for g := 0; g < 2; g++ {
		g := g
		e.Go("consumer", func(p *Proc) {
			for {
				v, ok := c.Get(p)
				if !ok {
					return
				}
				step(200+g, v.(int))
			}
		})
	}
	end, err := e.Run(0)
	if err != nil {
		panic(err)
	}
	return h.Sum64(), end, e.Events()
}

// The sequences below were recorded from the kernel-goroutine implementation
// this one replaced (commit 0a8eecc): dispatching from whichever process
// yields must fire events in the same order, not merely a deterministic one.
func TestEventOrderMatchesRecordedKernel(t *testing.T) {
	for _, want := range []struct {
		seed   int64
		hash   uint64
		end    time.Duration
		events uint64
	}{
		{1, 0x9446368dcbf3c788, 373 * time.Microsecond, 1193},
		{2, 0x2040a187e72f0dae, 436 * time.Microsecond, 1208},
		{3, 0x8744969ace5197ea, 427 * time.Microsecond, 1194},
	} {
		hash, end, events := randomOpsTrace(want.seed)
		if hash != want.hash || end != want.end || events != want.events {
			t.Errorf("seed %d: trace %#x ending at %v after %d events, recorded %#x at %v after %d",
				want.seed, hash, end, events, want.hash, want.end, want.events)
		}
	}
}

// presentOpsTrace runs a program made mostly of work due at the current
// instant — After(0) chains, Sleep(0), Event and Cond callbacks registered
// among process waiters on the same event, Resource hand-offs that take no
// time, Go from inside a process — beside 1 µs steps that move the clock, so
// at every instant events scheduled earlier meet events scheduled now. Every
// step is folded into one hash, and the operations are drawn from Env.Rand
// as the run proceeds (in callbacks too), so one event fired out of order
// changes every later draw. The run is sliced by Run(limit) calls, one of
// them repeated, with a process spawned between two slices, then finished.
func presentOpsTrace(seed int64) (hash uint64, end time.Duration, events uint64) {
	e := New(seed)
	defer e.Close()
	h := fnv.New64a()
	step := func(who, op int) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(who))
		binary.LittleEndian.PutUint64(b[8:], uint64(op))
		binary.LittleEndian.PutUint64(b[16:], uint64(e.Now()))
		h.Write(b[:])
	}
	res := NewResource(e, "r", 2)
	cond := NewCond(e)
	ev := newEvent(e)
	var chain func(who, left int)
	chain = func(who, left int) {
		step(who, 100+left)
		if left > 0 {
			e.After(0, func() { chain(who, left-1) })
		}
	}
	const workers, opsEach = 6, 90
	running := workers
	for w := 0; w < workers; w++ {
		w := w
		e.Go("worker", func(p *Proc) {
			for i := 0; i < opsEach; i++ {
				rng := e.Rand()
				switch op := rng.Intn(10); op {
				case 0:
					p.Sleep(0)
					step(w, op)
				case 1:
					n := rng.Intn(3)
					e.After(0, func() { chain(300+w, n) })
				case 2:
					ev.Wait(p)
					step(w, op)
				case 3:
					ev.Then(func() { step(400+w, e.Rand().Intn(4)) })
				case 4:
					cond.Wait(p)
					step(w, op)
				case 5:
					cond.Then(func() { chain(500+w, e.Rand().Intn(2)) })
				case 6:
					res.Use(p, 1+rng.Intn(2), 0)
					step(w, op)
				case 7:
					child := e.Go("child", func(c *Proc) {
						c.Sleep(0)
						res.Use(c, 1, 0)
						step(600+w, 0)
						e.After(0, func() { step(700+w, 0) })
					})
					if rng.Intn(2) == 0 {
						child.Wait(p)
						step(w, op)
					}
				case 8:
					p.Sleep(time.Microsecond)
					step(w, op)
				case 9:
					d := time.Duration(rng.Intn(3)) * time.Microsecond
					e.After(d, func() { step(800+w, int(d)) })
				}
			}
			running--
		})
	}
	// The ticker releases each Event and the Cond once a microsecond while
	// any worker might be waiting on them; it fires with waiters of both
	// kinds registered in between its own wakeups.
	e.Go("ticker", func(p *Proc) {
		for running > 0 {
			p.Sleep(time.Microsecond)
			fired := ev
			ev = newEvent(e)
			fired.Fire()
			cond.Broadcast()
			step(900, 0)
		}
	})
	for i, limit := range []time.Duration{1, 1, 3, 4, 9, 17, 30} {
		if i == 2 {
			e.Go("between", func(p *Proc) { p.Sleep(0); step(1000, 0) })
		}
		at, err := e.Run(limit * time.Microsecond)
		if err != nil {
			panic(err)
		}
		step(1100+i, int(at))
	}
	end, err := e.Run(0)
	if err != nil {
		panic(err)
	}
	return h.Sum64(), end, e.Events()
}

// Pins the kernel's order where most events are due at the instant they are
// scheduled, the case a kernel may serve without its heap. The sequences
// were recorded from the heap-only kernel.
func TestPresentEventOrderPinned(t *testing.T) {
	for _, want := range []struct {
		seed   int64
		hash   uint64
		end    time.Duration
		events uint64
	}{
		{1, 0x9d72ed5a583d79c3, 32 * time.Microsecond, 879},
		{2, 0xbd7571ac3ea7987d, 32 * time.Microsecond, 919},
		{3, 0x1e1363d02ce6d076, 30 * time.Microsecond, 908},
	} {
		hash, end, events := presentOpsTrace(want.seed)
		if hash != want.hash || end != want.end || events != want.events {
			t.Errorf("seed %d: trace %#x ending at %v after %d events, recorded %#x at %v after %d",
				want.seed, hash, end, events, want.hash, want.end, want.events)
		}
	}
}

// Close with events due now — callbacks, a fired Event's and a broadcast
// Cond's waiters, a never-started process and one woken from a Cond — fires
// none of them: only the woken process's defers run, as the unwind.
func TestCloseRunsNothingPending(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	ev := newEvent(e)
	var ran []string
	note := func(what string) func() { return func() { ran = append(ran, what) } }
	unwound := false
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		c.Wait(p)
		ran = append(ran, "waiter resumed")
	})
	e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	if _, err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	before := e.Events()
	e.After(0, note("after"))
	ev.Then(note("event callback"))
	c.Then(note("cond callback"))
	ev.Fire()
	c.Broadcast()
	e.Go("never-started", func(p *Proc) { ran = append(ran, "never-started") })
	e.Close()
	if len(ran) != 0 || !unwound || e.Events() != before || e.Live() != 0 || e.Now() != time.Second {
		t.Errorf("Close ran %v (unwound=%v, %d events fired, %d live, now %v); want nothing run, the waiter unwound, no event, no process, 1s",
			ran, unwound, e.Events()-before, e.Live(), e.Now())
	}
}

func TestRunLimitStopsMidSleep(t *testing.T) {
	// The limit falls inside the only process's Sleep: the process is its own
	// dispatcher when the limit stops the run, and a later Run must finish
	// the same Sleep at the time it was due.
	finish := func(limits ...time.Duration) (woke, end time.Duration) {
		e := New(1)
		defer e.Close()
		e.Go("p", func(p *Proc) {
			p.Sleep(3 * time.Second)
			woke = p.Now()
			p.Sleep(time.Second)
		})
		for _, l := range limits {
			at, err := e.Run(l)
			if err != nil || at != l || woke != 0 {
				t.Fatalf("Run(%v) = %v, %v with woke=%v; want a clean pause at the limit", l, at, err, woke)
			}
		}
		end, _ = e.Run(0)
		return woke, end
	}
	woke, end := finish(time.Second, 2*time.Second)
	straightWoke, straightEnd := finish()
	if woke != 3*time.Second || woke != straightWoke || end != straightEnd {
		t.Errorf("paused run woke at %v and ended at %v; uninterrupted run %v and %v", woke, end, straightWoke, straightEnd)
	}
}

func TestRunContextCancelledFromProcess(t *testing.T) {
	// The process cancels and keeps sleeping: every stride poll runs on its
	// goroutine, which must hand the error back to RunContext's caller.
	e := New(1)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Duration
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 1_000_000; i++ {
			if i == 1000 {
				cancelledAt = p.Now()
				cancel()
			}
			p.Sleep(time.Millisecond)
		}
	})
	end, err := e.RunContext(ctx, 0)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if end < cancelledAt || end > cancelledAt+cancelStride*time.Millisecond {
		t.Errorf("stopped at %v, cancelled at %v: want within one poll stride", end, cancelledAt)
	}
	if e.Now() != end {
		t.Errorf("clock at %v after RunContext returned %v", e.Now(), end)
	}
}

func TestLastProcessFinishingEndsRun(t *testing.T) {
	// The last live process exits while it is running: its exit dispatch
	// finds the heap empty and must end Run.
	e := New(1)
	defer e.Close()
	e.Go("only", func(p *Proc) { p.Sleep(time.Second) })
	end, err := e.Run(0)
	if err != nil || end != time.Second || e.Live() != 0 {
		t.Errorf("end=%v err=%v live=%d, want 1s, nil, 0", end, err, e.Live())
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New(1)
	defer e.Close()
	var got any
	e.Go("p", func(p *Proc) {
		defer func() { got = recover() }()
		e.Run(0)
	})
	e.Run(0)
	if got != "sim: Run called reentrantly" {
		t.Errorf("recovered %v, want the reentrancy panic", got)
	}
}

// settledGoroutines counts goroutines once the count has stopped moving, so
// that a goroutine this test started and is still exiting is not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; stable++ {
		time.Sleep(100 * time.Microsecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		}
	}
	return n
}

func TestCloseReleasesGoroutines(t *testing.T) {
	before := settledGoroutines()
	e := New(1)
	c := NewCond(e)
	r := NewResource(e, "r", 1)
	var unwound, ranAfterClose int
	e.Go("daemon", func(p *Proc) {
		p.SetDaemon(true)
		defer func() { unwound++ }()
		for {
			c.Wait(p)
		}
	})
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Hour)
		ranAfterClose++
	})
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		defer r.Release(1) // wakes "queued" during the unwind: must fire nothing
		defer func() {
			unwound++
			p.Sleep(time.Second) // blocking in a defer during Close unwinds too
			ranAfterClose++
		}()
		p.Sleep(time.Hour)
	})
	e.Go("queued", func(p *Proc) {
		defer func() { unwound++ }()
		r.Acquire(p, 1)
		ranAfterClose++
	})
	if _, err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	e.Go("never-started", func(p *Proc) { ranAfterClose++ })
	if n := settledGoroutines(); n != before+5 {
		t.Fatalf("%d goroutines before Close, want %d parked processes above the starting %d", n, 5, before)
	}
	e.Close()
	e.Close()
	if n := settledGoroutines(); n != before {
		t.Errorf("%d goroutines after Close, started with %d", n, before)
	}
	if unwound != 4 || ranAfterClose != 0 || e.Live() != 0 || e.Now() != time.Minute {
		t.Errorf("unwound=%d ranAfterClose=%d live=%d now=%v, want 4, 0, 0, 1m", unwound, ranAfterClose, e.Live(), e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("Run after Close did not panic")
		}
	}()
	e.Run(0)
}

func TestRetryBudget(t *testing.T) {
	e := New(1)
	defer e.Close()
	const seed, budget = 7, 5
	e.Go("client", func(p *Proc) {
		// A bounded Retry stalls exactly budget times on the schedule of the
		// Backoff inside it, then refuses without sleeping or drawing.
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		r := Retry{Backoff: NewBackoff(time.Millisecond, 8*time.Millisecond, rng), Budget: budget}
		bo := NewBackoff(time.Millisecond, 8*time.Millisecond, ref)
		for i := 0; i < budget; i++ {
			before := p.Now()
			d, ok := r.Stall(p)
			if want := bo.Next(); !ok || d != want || p.Now()-before != want {
				t.Errorf("stall %d = %v, %v after %v asleep; want %v, true", i, d, ok, p.Now()-before, want)
				return
			}
		}
		before := p.Now()
		if d, ok := r.Stall(p); ok || d != 0 || p.Now() != before {
			t.Errorf("stall past the budget = %v, %v after %v asleep; want 0, false, no sleep", d, ok, p.Now()-before)
		}
		if got, want := rng.Int63(), ref.Int63(); got != want {
			t.Errorf("refused stall drew from the rng: next draw %d, want %d", got, want)
		}

		// A negative budget never refuses and is never spent.
		forever := Retry{Backoff: NewBackoff(0, 0, rng), Budget: -1}
		for i := 0; i < 1000; i++ {
			if d, ok := forever.Stall(p); !ok || d < retryBase/2 || d > retryBase {
				t.Errorf("unbounded stall %d = %v, %v; want true within [%v, %v]", i, d, ok, retryBase/2, retryBase)
				return
			}
		}
		if forever.Budget != -1 {
			t.Errorf("unbounded budget moved to %d", forever.Budget)
		}

		// Two Retrys over one rng interleave their draws as two Backoffs do:
		// construction draws nothing, each stall draws once.
		rng, ref = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		a, b := NewRetry(rng), NewRetry(rng)
		boA, boB := NewBackoff(retryBase, netRetryMax, ref), NewBackoff(retryBase, netRetryMax, ref)
		for i := 0; i < netRetries; i++ {
			ra, rb := &a, &boA
			if i%3 == 0 {
				ra, rb = &b, &boB
			}
			if d, ok := ra.Stall(p); !ok || d != rb.Next() {
				t.Errorf("shared-rng stall %d diverged from the Backoff pair", i)
				return
			}
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
