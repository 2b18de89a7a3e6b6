package cpustat

import (
	"testing"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/sim"
)

func rig(nslaves int) (*sim.Env, *cluster.Cluster) {
	env := sim.New(1)
	cl, err := cluster.New(env, cluster.DefaultHardware(8192), nslaves)
	if err != nil {
		panic(err)
	}
	return env, cl
}

func TestUtilizationTracksLoad(t *testing.T) {
	env, cl := rig(2)
	m := NewMonitor(100*time.Millisecond, cl.Slaves)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		// Slave 0: half its cores busy for 1s. Slave 1 idle.
		var done []*sim.Handle
		for i := 0; i < cl.Slaves[0].CPU.Capacity()/2; i++ {
			done = append(done, env.Go("burn", func(b *sim.Proc) {
				cl.Slaves[0].Compute(b, time.Second)
			}))
		}
		for _, h := range done {
			h.Wait(p)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	// Slave 0 at 50%, slave 1 at 0% -> cluster mean 25%.
	got := m.Util().Mean()
	if got < 20 || got > 30 {
		t.Errorf("cluster mean util = %.1f, want ~25", got)
	}
}

func TestIdleClusterZero(t *testing.T) {
	env, cl := rig(1)
	m := NewMonitor(50*time.Millisecond, cl.Slaves)
	m.Start(env)
	env.Go("idle", func(p *sim.Proc) {
		p.Sleep(300 * time.Millisecond)
		m.Stop(p.Now())
	})
	env.Run(0)
	if m.Util().Max() != 0 {
		t.Errorf("idle cluster shows util %.1f", m.Util().Max())
	}
	if m.Util().Len() < 5 {
		t.Errorf("samples = %d, want >= 5", m.Util().Len())
	}
}

func TestSaturationCapsAt100(t *testing.T) {
	env, cl := rig(1)
	m := NewMonitor(50*time.Millisecond, cl.Slaves)
	m.Start(env)
	env.Go("load", func(p *sim.Proc) {
		var hs []*sim.Handle
		for i := 0; i < 2*cl.Slaves[0].CPU.Capacity(); i++ { // two tasks a core
			hs = append(hs, env.Go("burn", func(b *sim.Proc) {
				cl.Slaves[0].Compute(b, 200*time.Millisecond)
			}))
		}
		for _, h := range hs {
			h.Wait(p)
		}
		m.Stop(p.Now())
	})
	env.Run(0)
	if max := m.Util().Max(); max > 100.001 {
		t.Errorf("util exceeded 100%%: %.2f", max)
	}
	if mean := m.Util().MeanNonzero(); mean < 95 {
		t.Errorf("saturated node mean = %.1f, want ~100", mean)
	}
}
