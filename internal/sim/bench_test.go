package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The event kernel's hot operations are heap push/pop (schedule and
// dispatch) and the sleep/wake path processes ride through every yield.
// These benchmarks pin their per-event cost so `go test -bench` trends (and
// CI's benchstat step) catch kernel regressions directly, without running a
// whole workload.

// BenchmarkKernelTimerHeap measures raw schedule+dispatch throughput: b.N
// callbacks with pseudo-random delays pushed through the event heap in
// batches, so the heap works at realistic depth (~4k outstanding events).
func BenchmarkKernelTimerHeap(b *testing.B) {
	env := New(1)
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(1_000_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch := len(delays)
		if b.N-done < batch {
			batch = b.N - done
		}
		for j := 0; j < batch; j++ {
			env.After(delays[j], func() {})
		}
		if _, err := env.Run(0); err != nil {
			b.Fatal(err)
		}
		done += batch
	}
}

// BenchmarkKernelSleepWake measures the process path: one proc yielding b.N
// times, each iteration a full block/schedule/dispatch/wake round trip.
func BenchmarkKernelSleepWake(b *testing.B) {
	env := New(1)
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelResourceHandoff measures contended Acquire/Release — the
// pattern task slots and CPU cores exercise constantly: two procs handing a
// single unit back and forth through the FIFO waiter queue.
func BenchmarkKernelResourceHandoff(b *testing.B) {
	env := New(1)
	res := NewResource(env, "unit", 1)
	worker := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			res.Acquire(p, 1)
			p.Sleep(time.Nanosecond)
			res.Release(1)
		}
	}
	env.Go("a", worker)
	env.Go("b", worker)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelPingPong measures the cross-process path: two procs
// alternating through a pair of testChans, so every resume switches to the
// other process's coroutine by way of Run.
func BenchmarkKernelPingPong(b *testing.B) {
	env := New(1)
	ping, pong := &testChan{env: env}, &testChan{env: env}
	env.Go("ping", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			ping.Put(nil)
			pong.Get(p)
		}
		ping.Close()
	})
	env.Go("pong", func(p *Proc) {
		for {
			if _, ok := ping.Get(p); !ok {
				return
			}
			pong.Put(nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelPresent measures events due at the instant they are
// scheduled — about half of io_storm's — beside the ~100 outstanding future
// timers io_storm's heap holds: two procs hand a single unit back and forth
// at one instant, each Sleep(0) a self-resume and each Release a wake.
func BenchmarkKernelPresent(b *testing.B) {
	env := New(1)
	for i := 0; i < 100; i++ {
		env.After(time.Hour+time.Duration(i), func() {})
	}
	res := NewResource(env, "unit", 1)
	worker := func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			res.Acquire(p, 1)
			p.Sleep(0)
			res.Release(1)
		}
	}
	env.Go("a", worker)
	env.Go("b", worker)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelCallbackUnderProcess measures callbacks fired from a process
// stack: a sleeping proc whose every wake-up is preceded by one After
// callback, the shape of a disk completion racing a task's timer.
func BenchmarkKernelCallbackUnderProcess(b *testing.B) {
	env := New(1)
	fired := 0
	tick := func() { fired++ }
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			env.After(time.Nanosecond, tick)
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := env.Run(0); err != nil {
		b.Fatal(err)
	}
	if fired != b.N/2 {
		b.Fatalf("%d callbacks fired, want %d", fired, b.N/2)
	}
}
