// Package cpustat samples per-node CPU utilization over virtual time — the
// vmstat/top side of the paper's methodology. The paper classifies each
// workload as CPU-bound or I/O-bound (Table 3) and proposes combining CPU
// and disk descriptions in future work; this sampler provides the CPU half
// so the classification is measurable rather than asserted.
package cpustat

import (
	"time"

	"iochar/internal/cluster"
	"iochar/internal/sim"
	"iochar/internal/stats"
)

// Monitor periodically samples the CPU utilization of a set of nodes.
type Monitor struct {
	interval time.Duration
	nodes    []*cluster.Node
	series   *stats.Series // cluster-wide mean utilization, percent
	lastBusy []time.Duration
	lastAt   time.Duration
	stopped  bool
	started  bool
}

// NewMonitor creates a monitor over the given nodes.
func NewMonitor(interval time.Duration, nodes []*cluster.Node) *Monitor {
	if interval <= 0 {
		panic("cpustat: non-positive interval")
	}
	if len(nodes) == 0 {
		panic("cpustat: no nodes")
	}
	m := &Monitor{
		interval: interval,
		nodes:    nodes,
		series:   stats.NewSeries("cpu.%util"),
		lastBusy: make([]time.Duration, len(nodes)),
	}
	return m
}

// Start begins sampling, one After chain with a link per interval. Call
// at most once.
func (m *Monitor) Start(env *sim.Env) {
	if m.started {
		panic("cpustat: Start called twice")
	}
	m.started = true
	m.lastAt = env.Now()
	for i, n := range m.nodes {
		m.lastBusy[i] = n.CPU.BusyTime()
	}
	var wait func()
	wait = func() {
		if !m.stopped {
			env.After(m.interval, func() { m.sample(env.Now()); wait() })
		}
	}
	env.After(0, wait)
}

// Stop ends sampling, flushing a final partial interval when meaningful.
func (m *Monitor) Stop(now time.Duration) {
	if m.stopped {
		return
	}
	m.stopped = true
	if now-m.lastAt >= m.interval/10 {
		m.sample(now)
	}
}

func (m *Monitor) sample(now time.Duration) {
	if m.stopped && now == m.lastAt {
		return
	}
	elapsed := now - m.lastAt
	if elapsed <= 0 {
		return
	}
	total := 0.0
	for i, n := range m.nodes {
		busy := n.CPU.BusyTime()
		util := float64(busy-m.lastBusy[i]) / (float64(elapsed) * float64(n.CPU.Capacity())) * 100
		m.lastBusy[i] = busy
		total += util
	}
	m.series.Add(now, total/float64(len(m.nodes)))
	m.lastAt = now
}

// Util returns the cluster-wide mean CPU utilization series (percent).
func (m *Monitor) Util() *stats.Series { return m.series }
