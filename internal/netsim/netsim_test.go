package netsim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"iochar/internal/sim"
)

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0) // 100 MiB/s, no latency
	n.AddNode("a")
	n.AddNode("b")
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a", "b", 100<<20)
		took = p.Now() - start
	})
	env.Run(0)
	if took < 990*time.Millisecond || took > 1010*time.Millisecond {
		t.Errorf("100 MiB at 100 MiB/s took %v, want ~1s", took)
	}
}

func TestDisjointFlowsRunInParallel(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddNode(name)
	}
	var end time.Duration
	done := func(p *sim.Proc) {
		if p.Now() > end {
			end = p.Now()
		}
	}
	env.Go("t1", func(p *sim.Proc) { n.Transfer(p, "a", "b", 100<<20); done(p) })
	env.Go("t2", func(p *sim.Proc) { n.Transfer(p, "c", "d", 100<<20); done(p) })
	env.Run(0)
	if end > 1100*time.Millisecond {
		t.Errorf("disjoint flows took %v, want ~1s (parallel)", end)
	}
}

func TestSharedNICFlowsSerialize(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	for _, name := range []string{"a", "b", "c"} {
		n.AddNode(name)
	}
	var end time.Duration
	track := func(p *sim.Proc) {
		if p.Now() > end {
			end = p.Now()
		}
	}
	// Both flows transmit from a: combined 2x data through one NIC.
	env.Go("t1", func(p *sim.Proc) { n.Transfer(p, "a", "b", 100<<20); track(p) })
	env.Go("t2", func(p *sim.Proc) { n.Transfer(p, "a", "c", 100<<20); track(p) })
	env.Run(0)
	if end < 1900*time.Millisecond {
		t.Errorf("shared-NIC flows finished in %v, want ~2s (bandwidth shared)", end)
	}
}

func TestChunkingInterleavesFairly(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	for _, name := range []string{"a", "b", "c"} {
		n.AddNode(name)
	}
	var small, big time.Duration
	env.Go("big", func(p *sim.Proc) {
		n.Transfer(p, "a", "b", 200<<20)
		big = p.Now()
	})
	env.Go("small", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // arrive second
		n.Transfer(p, "a", "c", 1<<20)
		small = p.Now()
	})
	env.Run(0)
	// Chunked sharing: the small transfer must not wait for the whole big one.
	if small >= big {
		t.Errorf("small transfer finished at %v, after big at %v; no interleaving", small, big)
	}
}

func TestLoopbackCostsLatencyOnly(t *testing.T) {
	env := sim.New(1)
	n := New(env, 1<<20, time.Millisecond) // slow NIC, visible latency
	n.AddNode("a")
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a", "a", 100<<20)
		took = p.Now() - start
	})
	env.Run(0)
	if took != time.Millisecond {
		t.Errorf("loopback took %v, want 1ms latency only", took)
	}
}

func TestByteAccounting(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	a, b := n.AddNode("a"), n.AddNode("b")
	env.Go("t", func(p *sim.Proc) {
		n.Transfer(p, "a", "b", 12345)
		n.Transfer(p, "b", "a", 11)
	})
	env.Run(0)
	if a.sent != 12345 || b.received != 12345 {
		t.Errorf("a->b accounting wrong: %d/%d", a.sent, b.received)
	}
	if b.sent != 11 || a.received != 11 {
		t.Errorf("b->a accounting wrong: %d/%d", b.sent, a.received)
	}
}

func TestZeroTransferNoop(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.AddNode("a")
	n.AddNode("b")
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a", "b", 0)
		if p.Now() != start {
			t.Error("zero transfer advanced time")
		}
	})
	env.Run(0)
}

func TestUnregisteredNodePanics(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.AddNode("a")
	env.Go("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		n.Transfer(p, "a", "ghost", 10)
	})
	env.Run(0)
}

func TestDuplicateNodePanics(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	n.AddNode("a")
}

func TestManyToOneConvergecastSerializesAtReceiver(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.AddNode("sink")
	for i := 0; i < 4; i++ {
		n.AddNode(string(rune('a' + i)))
	}
	var end time.Duration
	for i := 0; i < 4; i++ {
		src := string(rune('a' + i))
		env.Go(src, func(p *sim.Proc) {
			n.Transfer(p, src, "sink", 50<<20)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	env.Run(0)
	// 200 MiB must pass through the sink's rx at 100 MiB/s: >= 2s.
	if end < 1900*time.Millisecond {
		t.Errorf("convergecast finished in %v, want ~2s (rx-bound)", end)
	}
}

func TestTypedDownErrorBothDirections(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.AddNode("a")
	n.AddNode("b")
	n.SetDown("b", true)
	env.Go("t", func(p *sim.Proc) {
		for _, dir := range [][2]string{{"a", "b"}, {"b", "a"}} {
			err := n.TryTransfer(p, dir[0], dir[1], 10)
			var de *DownError
			if !errors.As(err, &de) || de.Node != "b" {
				t.Errorf("%v -> %v: got %v, want *DownError{b}", dir[0], dir[1], err)
			}
			if !errors.Is(err, ErrUnreachable) {
				t.Errorf("%v not ErrUnreachable", err)
			}
			if errors.Is(err, ErrTransient) {
				t.Errorf("down node matched ErrTransient; crashes are not transient")
			}
		}
	})
	env.Run(0)
}

func TestOversubscribedUplinkSerializesCrossRack(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.SetRacks(2, 50<<20) // uplink at half the NIC rate
	n.AddNodeRack("a0", 0)
	n.AddNodeRack("a1", 0)
	n.AddNodeRack("b0", 1)
	n.AddNodeRack("b1", 1)
	var end time.Duration
	track := func(p *sim.Proc) {
		if p.Now() > end {
			end = p.Now()
		}
	}
	// Two disjoint cross-rack flows share rack 0's 50 MiB/s uplink:
	// 200 MiB total through it takes >= 4s.
	env.Go("t1", func(p *sim.Proc) { n.Transfer(p, "a0", "b0", 100<<20); track(p) })
	env.Go("t2", func(p *sim.Proc) { n.Transfer(p, "a1", "b1", 100<<20); track(p) })
	env.Run(0)
	if end < 3900*time.Millisecond {
		t.Errorf("cross-rack flows finished in %v, want ~4s (uplink-bound)", end)
	}
	st := n.Stats()
	if len(st.Uplinks) != 2 {
		t.Fatalf("want 2 uplinks in stats, got %d", len(st.Uplinks))
	}
	if st.Uplinks[0].BytesUp != 200<<20 || st.Uplinks[1].BytesDown != 200<<20 {
		t.Errorf("uplink byte accounting wrong: %+v", st.Uplinks)
	}
}

func TestSameRackFlowsSkipUplink(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.SetRacks(2, 1<<20) // absurdly slow uplink must not matter intra-rack
	n.AddNodeRack("a0", 0)
	n.AddNodeRack("a1", 0)
	n.AddNodeRack("b0", 1)
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a0", "a1", 100<<20)
		took = p.Now() - start
	})
	env.Run(0)
	if took > 1100*time.Millisecond {
		t.Errorf("same-rack transfer took %v, want ~1s (no uplink hop)", took)
	}
	if st := n.Stats(); st.Uplinks[0].BytesUp != 0 {
		t.Errorf("same-rack transfer charged the uplink: %+v", st.Uplinks[0])
	}
}

func TestPartitionSeversAndHeals(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.AddNode("a")
	n.AddNode("b")
	n.AddNode("c")
	n.Partition("p1", []string{"b", "c"})
	env.Go("t", func(p *sim.Proc) {
		err := n.TryTransfer(p, "a", "b", 10)
		var pe *PartitionError
		if !errors.As(err, &pe) {
			t.Fatalf("got %v, want *PartitionError", err)
		}
		if !errors.Is(err, ErrUnreachable) || !errors.Is(err, ErrTransient) {
			t.Errorf("partition error should match ErrUnreachable and ErrTransient")
		}
		// Inside the minority partition traffic still flows.
		if err := n.TryTransfer(p, "b", "c", 10); err != nil {
			t.Errorf("intra-partition transfer failed: %v", err)
		}
		if n.Reachable("a", "b") || !n.Reachable("b", "c") {
			t.Error("Reachable disagrees with partition boundary")
		}
		n.Heal("p1")
		if err := n.TryTransfer(p, "a", "b", 10); err != nil {
			t.Errorf("post-heal transfer failed: %v", err)
		}
	})
	env.Run(0)
}

func TestPartitionSeversInFlightTransfer(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.AddNode("a")
	n.AddNode("b")
	var err error
	env.Go("t", func(p *sim.Proc) {
		err = n.TryTransfer(p, "a", "b", 100<<20) // ~1s healthy
	})
	env.Go("chaos", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		n.Partition("mid", []string{"b"})
	})
	env.Run(0)
	if !errors.Is(err, ErrTransient) {
		t.Errorf("in-flight transfer got %v, want transient partition error", err)
	}
}

func TestSlowNICStretchesTransfer(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.AddNode("a")
	n.AddNode("b")
	n.SetNICSlow("b", 4)
	var took time.Duration
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a", "b", 100<<20)
		took = p.Now() - start
	})
	env.Run(0)
	if took < 3900*time.Millisecond || took > 4100*time.Millisecond {
		t.Errorf("transfer through 4x-slow NIC took %v, want ~4s", took)
	}
	n.SetNICSlow("b", 1) // restore
	var again time.Duration
	env2 := env
	_ = env2
	env.Go("t2", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a", "b", 100<<20)
		again = p.Now() - start
	})
	env.Run(0)
	if again > 1100*time.Millisecond {
		t.Errorf("restored NIC took %v, want ~1s", again)
	}
}

func TestSlowUplinkOnlyAffectsCrossRack(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.SetRacks(2, 100<<20)
	n.AddNodeRack("a0", 0)
	n.AddNodeRack("a1", 0)
	n.AddNodeRack("b0", 1)
	n.SetUplinkSlow(0, 10)
	var cross, local time.Duration
	env.Go("cross", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a0", "b0", 10<<20)
		cross = p.Now() - start
	})
	env.Go("local", func(p *sim.Proc) {
		start := p.Now()
		n.Transfer(p, "a1", "a0", 10<<20)
		local = p.Now() - start
	})
	env.Run(0)
	if cross < 900*time.Millisecond {
		t.Errorf("cross-rack through 10x-slow uplink took %v, want ~1s", cross)
	}
	if local > 300*time.Millisecond {
		t.Errorf("intra-rack transfer took %v; slow uplink leaked into the rack", local)
	}
}

func TestDropRetransmitsAndCounts(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.AddNode("a")
	n.AddNode("b")
	n.SetDrop("b", 0.5, rand.New(rand.NewSource(7)))
	var clean, lossy time.Duration
	env.Go("t", func(p *sim.Proc) {
		start := p.Now()
		if err := n.TryTransfer(p, "a", "b", 50<<20); err != nil {
			t.Errorf("lossy transfer failed outright: %v", err)
		}
		lossy = p.Now() - start
		n.ClearDrop("b")
		start = p.Now()
		n.Transfer(p, "a", "b", 50<<20)
		clean = p.Now() - start
	})
	env.Run(0)
	if lossy <= clean {
		t.Errorf("lossy transfer (%v) not slower than clean (%v)", lossy, clean)
	}
	st := n.Stats()
	if st.DroppedChunks == 0 {
		t.Error("no dropped chunks counted on a 50% lossy path")
	}
	if st.NICs[0].RetransBytes == 0 {
		t.Error("no retransmitted bytes charged to the sender")
	}
}

func TestDeadDropPathFailsTransient(t *testing.T) {
	env := sim.New(1)
	n := New(env, 100<<20, 0)
	n.AddNode("a")
	n.AddNode("b")
	n.SetDrop("b", 1.0, rand.New(rand.NewSource(1)))
	env.Go("t", func(p *sim.Proc) {
		err := n.TryTransfer(p, "a", "b", 10<<20)
		var de *DropError
		if !errors.As(err, &de) {
			t.Fatalf("got %v, want *DropError", err)
		}
		if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrUnreachable) {
			t.Error("drop error should match ErrTransient and ErrUnreachable")
		}
	})
	env.Run(0)
}

func TestRackAssignmentHelpers(t *testing.T) {
	env := sim.New(1)
	n := Gigabit(env)
	n.SetRacks(2, 0)
	n.AddNodeRack("m", 0)
	n.AddNodeRack("s1", 1)
	n.AddNodeRack("s2", 0)
	if n.RackOf("s1") != 1 || n.RackOf("m") != 0 {
		t.Error("RackOf wrong")
	}
	var got []string
	for _, nic := range n.Stats().NICs {
		got = append(got, nic.Node)
	}
	if strings.Join(got, " ") != "m s1 s2" {
		t.Errorf("Stats().NICs = %v, want [m s1 s2] in registration order", got)
	}
	if n.Racks() != 2 {
		t.Errorf("Racks() = %d, want 2", n.Racks())
	}
}

func TestHealthyRunDrawsNoRandomness(t *testing.T) {
	// Byte-identity guard: with no faults configured the fabric must not
	// consult any rng, so two identical runs produce identical event counts.
	walls := make([]time.Duration, 2)
	for i := range walls {
		env := sim.New(1)
		n := New(env, 100<<20, 0)
		n.AddNode("a")
		n.AddNode("b")
		env.Go("t", func(p *sim.Proc) { n.Transfer(p, "a", "b", 64<<20) })
		env.Run(0)
		walls[i] = env.Now()
	}
	if walls[0] != walls[1] {
		t.Errorf("healthy runs diverged: %v vs %v", walls[0], walls[1])
	}
}
