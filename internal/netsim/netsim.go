// Package netsim models the cluster network as a two-tier rack topology:
// one full-duplex NIC per node attached to its rack's top-of-rack switch,
// with racks joined by configurable (oversubscribable) uplinks. The default
// is a single rack, which degenerates to the paper's flat non-blocking
// 1 GbE switch. Transfers are chunked; each chunk holds the sender's
// transmit side, any rack uplinks on the path, and the receiver's receive
// side for its serialization time, so concurrent flows through the same NIC
// or uplink interleave approximately fairly while disjoint flows proceed in
// parallel. Acquisition is always in fixed class order (tx, uplink-up,
// uplink-down, rx) with at most one resource per class, which excludes
// deadlock by construction.
//
// The fabric is also a fault target: nodes can be down, the cluster can be
// partitioned along arbitrary node-set boundaries, NICs and uplinks can be
// fail-slow by a factor, and paths can drop chunks with a probability
// (modelled as retransmissions, surfacing a transient error only when a
// chunk fails repeatedly). Failed transfers return typed errors that
// callers match with errors.Is/errors.As: all failures match
// ErrUnreachable; partition and drop failures also match ErrTransient,
// because they heal on a schedule.
package netsim

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"time"

	"iochar/internal/sim"
)

// DefaultChunk is the transfer interleaving granularity.
const DefaultChunk = 256 << 10 // 256 KiB

// maxChunkAttempts bounds consecutive retransmissions of one chunk on a
// lossy path before the transfer surfaces a *DropError. With drop
// probability p the chance of hitting the bound is p^8, so moderate loss
// costs only time while a near-dead link fails fast.
const maxChunkAttempts = 8

// ErrUnreachable matches every transfer failure: down endpoints, severed
// partitions, and paths whose loss rate exhausted the retransmit budget.
var ErrUnreachable = errors.New("netsim: unreachable")

// ErrTransient matches failures that heal on a schedule (partitions and
// lossy links) but not crashed endpoints: a client that sees ErrTransient
// should back off and retry instead of writing the peer off.
var ErrTransient = errors.New("netsim: transient failure")

// DownError reports a transfer endpoint that is down. It matches
// ErrUnreachable but not ErrTransient: a down node needs recovery, not
// patience.
type DownError struct{ Node string }

func (e *DownError) Error() string { return "netsim: node " + e.Node + " is down" }

// Is matches ErrUnreachable so callers can classify without the concrete type.
func (e *DownError) Is(target error) bool { return target == ErrUnreachable }

// PartitionError reports a transfer severed by a network partition.
type PartitionError struct{ Src, Dst string }

func (e *PartitionError) Error() string {
	return "netsim: " + e.Src + " and " + e.Dst + " are in different partitions"
}

// Is matches both ErrUnreachable and ErrTransient: partitions heal.
func (e *PartitionError) Is(target error) bool {
	return target == ErrUnreachable || target == ErrTransient
}

// DropError reports a transfer that exhausted its retransmit budget on a
// lossy path.
type DropError struct{ Src, Dst string }

func (e *DropError) Error() string {
	return "netsim: path " + e.Src + " -> " + e.Dst + " dropped too many chunks"
}

// Is matches both ErrUnreachable and ErrTransient: lossy windows end.
func (e *DropError) Is(target error) bool {
	return target == ErrUnreachable || target == ErrTransient
}

// NIC is one node's network interface.
type NIC struct {
	Node string
	Rack int
	tx   *sim.Resource
	rx   *sim.Resource
	bps  int64
	slow float64 // fail-slow factor; <= 1 means healthy

	sent     uint64
	received uint64
	retrans  uint64 // bytes retransmitted on lossy paths
	txBusy   time.Duration
}

// uplink is one rack's connection to the aggregation layer, full duplex.
type uplink struct {
	rack int
	up   *sim.Resource
	down *sim.Resource
	bps  int64
	slow float64

	bytesUp   uint64
	bytesDown uint64
	upBusy    time.Duration
	downBusy  time.Duration
}

type dropState struct {
	prob float64
	rng  *rand.Rand
}

// Network is the fabric connecting NICs.
type Network struct {
	env       *sim.Env
	bps       int64 // per-NIC, each direction
	latency   time.Duration
	chunk     int64
	racks     int
	uplinkBPS int64
	nics      map[string]*NIC
	order     []string // registration order, for deterministic stats
	uplinks   map[int]*uplink
	down      map[string]bool   // nodes currently unreachable (fault injection)
	part      map[string]string // node -> partition id ("" = main partition)
	drops     map[string]*dropState

	failedTransfers uint64
	droppedChunks   uint64
}

// New creates a single-rack network where every NIC runs at bytesPerSec in
// each direction with the given per-chunk latency.
func New(env *sim.Env, bytesPerSec int64, latency time.Duration) *Network {
	if bytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	return &Network{
		env:     env,
		bps:     bytesPerSec,
		latency: latency,
		chunk:   DefaultChunk,
		racks:   1,
		nics:    make(map[string]*NIC),
		uplinks: make(map[int]*uplink),
		down:    make(map[string]bool),
		part:    make(map[string]string),
		drops:   make(map[string]*dropState),
	}
}

// Gigabit returns the paper's 1 GbE fabric (125 MB/s, 100 µs latency).
func Gigabit(env *sim.Env) *Network {
	return New(env, 125<<20, 100*time.Microsecond)
}

// SetRacks configures the topology: racks top-of-rack switches joined by
// uplinks of uplinkBPS bytes/sec per direction (<= 0 means uplinks match
// the NIC rate, i.e. non-oversubscribed). Must be called before nodes are
// registered; with racks == 1 the fabric stays flat and cross-rack
// machinery never engages.
func (n *Network) SetRacks(racks int, uplinkBPS int64) {
	if racks < 1 {
		panic("netsim: racks must be >= 1")
	}
	if len(n.nics) > 0 {
		panic("netsim: SetRacks after AddNode")
	}
	n.racks = racks
	n.uplinkBPS = uplinkBPS
}

// Racks returns the configured rack count.
func (n *Network) Racks() int { return n.racks }

// AddNode registers a node in rack 0 and returns its NIC. Duplicate names
// panic.
func (n *Network) AddNode(name string) *NIC { return n.AddNodeRack(name, 0) }

// AddNodeRack registers a node in the given rack and returns its NIC.
func (n *Network) AddNodeRack(name string, rack int) *NIC {
	if _, dup := n.nics[name]; dup {
		panic("netsim: duplicate node " + name)
	}
	if rack < 0 || rack >= n.racks {
		panic("netsim: rack out of range for node " + name)
	}
	nic := &NIC{
		Node: name,
		Rack: rack,
		tx:   sim.NewResource(n.env, name+".tx", 1),
		rx:   sim.NewResource(n.env, name+".rx", 1),
		bps:  n.bps,
	}
	n.nics[name] = nic
	n.order = append(n.order, name)
	if n.racks > 1 {
		n.rackUplink(rack)
	}
	return nic
}

// rackUplink returns (creating if needed) the uplink for a rack.
func (n *Network) rackUplink(rack int) *uplink {
	if u, ok := n.uplinks[rack]; ok {
		return u
	}
	bps := n.uplinkBPS
	if bps <= 0 {
		bps = n.bps
	}
	u := &uplink{
		rack: rack,
		up:   sim.NewResource(n.env, rackName(rack)+".up", 1),
		down: sim.NewResource(n.env, rackName(rack)+".down", 1),
		bps:  bps,
	}
	n.uplinks[rack] = u
	return u
}

func rackName(rack int) string {
	return "rack" + string(rune('0'+rack/10)) + string(rune('0'+rack%10))
}

// RackOf returns the rack a node was registered in; unregistered nodes
// panic.
func (n *Network) RackOf(name string) int {
	nic := n.nics[name]
	if nic == nil {
		panic("netsim: RackOf unregistered node " + name)
	}
	return nic.Rack
}

// SetDown marks a node unreachable (or reachable again). Transfers touching
// a down node fail at the next chunk boundary, so in-flight flows collapse
// within one chunk's serialization time rather than hanging.
func (n *Network) SetDown(name string, down bool) {
	if _, ok := n.nics[name]; !ok {
		panic("netsim: SetDown on unregistered node " + name)
	}
	n.down[name] = down
}

// Down reports whether the node is marked unreachable.
func (n *Network) Down(name string) bool { return n.down[name] }

// Partition splits the listed nodes away from the rest of the cluster under
// the given id. Nodes inside the set reach each other; every path crossing
// the boundary fails with a *PartitionError at the next chunk boundary.
// Disjoint concurrent partitions (distinct ids) are each isolated from the
// main partition and from one another.
func (n *Network) Partition(id string, nodes []string) {
	if id == "" {
		panic("netsim: empty partition id")
	}
	for _, name := range nodes {
		if _, ok := n.nics[name]; !ok {
			panic("netsim: Partition on unregistered node " + name)
		}
		n.part[name] = id
	}
}

// Heal removes the partition with the given id, reuniting its nodes with
// the main partition.
func (n *Network) Heal(id string) {
	for name, pid := range n.part {
		if pid == id {
			delete(n.part, name)
		}
	}
}

// Reachable reports whether a transfer between the two nodes could succeed
// right now: neither endpoint down and both in the same partition. Lossy
// links do not affect reachability (they retransmit).
func (n *Network) Reachable(a, b string) bool {
	return !n.down[a] && !n.down[b] && n.part[a] == n.part[b]
}

// SetNICSlow fail-slows a node's NIC by factor (both directions); factor
// <= 1 restores full speed.
func (n *Network) SetNICSlow(name string, factor float64) {
	nic := n.nics[name]
	if nic == nil {
		panic("netsim: SetNICSlow on unregistered node " + name)
	}
	if factor <= 1 {
		factor = 0
	}
	nic.slow = factor
}

// SetUplinkSlow fail-slows a rack's uplink by factor (both directions);
// factor <= 1 restores full speed. Panics on a flat (single-rack) network.
func (n *Network) SetUplinkSlow(rack int, factor float64) {
	if n.racks <= 1 {
		panic("netsim: SetUplinkSlow on a flat network")
	}
	u := n.rackUplink(rack)
	if factor <= 1 {
		factor = 0
	}
	u.slow = factor
}

// SetDrop makes every path touching the node lossy: each chunk is dropped
// (and retransmitted) with probability prob, drawn from rng. A chunk that
// drops maxChunkAttempts times in a row fails the transfer with a
// *DropError.
func (n *Network) SetDrop(name string, prob float64, rng *rand.Rand) {
	if _, ok := n.nics[name]; !ok {
		panic("netsim: SetDrop on unregistered node " + name)
	}
	if prob <= 0 || prob > 1 {
		panic("netsim: drop probability out of (0,1]")
	}
	n.drops[name] = &dropState{prob: prob, rng: rng}
}

// ClearDrop removes the lossy-path state for a node.
func (n *Network) ClearDrop(name string) { delete(n.drops, name) }

// Transfer moves bytes from node src to node dst, blocking p for the full
// transfer time. Local "transfers" (src == dst) cost one latency only,
// modelling loopback (a reducer fetching a map output from its own node).
// It panics if the path fails; fault-aware callers use TryTransfer.
func (n *Network) Transfer(p *sim.Proc, src, dst string, bytes int64) {
	if err := n.TryTransfer(p, src, dst, bytes); err != nil {
		panic("netsim: " + err.Error())
	}
}

// TryTransfer is Transfer with failure reporting: it returns a typed error
// (*DownError, *PartitionError, or *DropError — all matching ErrUnreachable,
// the latter two also ErrTransient) when the path is (or becomes) unusable,
// checked before every chunk so a fault severs in-flight flows promptly.
// Bytes are accounted only on full success.
func (n *Network) TryTransfer(p *sim.Proc, src, dst string, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	s, d := n.nics[src], n.nics[dst]
	if s == nil || d == nil {
		panic("netsim: transfer between unregistered nodes " + src + " -> " + dst)
	}
	if err := n.pathErr(src, dst); err != nil {
		n.failedTransfers++
		return err
	}
	if src == dst {
		p.Sleep(n.latency)
		s.sent += uint64(bytes)
		d.received += uint64(bytes)
		return nil
	}
	var su, du *uplink
	lat := n.latency
	if s.Rack != d.Rack {
		su, du = n.rackUplink(s.Rack), n.rackUplink(d.Rack)
		lat *= 2 // extra switch hop through the aggregation layer
	}
	remaining := bytes
	attempts := 0
	for remaining > 0 {
		c := n.chunk
		if c > remaining {
			c = remaining
		}
		t := time.Duration(float64(c) / float64(n.pathBPS(s, d, su, du)) * 1e9)
		s.tx.Acquire(p, 1)
		if su != nil {
			su.up.Acquire(p, 1)
			du.down.Acquire(p, 1)
		}
		d.rx.Acquire(p, 1)
		p.Sleep(t + lat)
		d.rx.Release(1)
		if su != nil {
			du.down.Release(1)
			su.up.Release(1)
		}
		s.tx.Release(1)
		s.txBusy += t
		if su != nil {
			su.upBusy += t
			du.downBusy += t
		}
		if err := n.pathErr(src, dst); err != nil {
			n.failedTransfers++
			return err
		}
		if n.chunkDropped(src, dst) {
			n.droppedChunks++
			s.retrans += uint64(c)
			attempts++
			if attempts >= maxChunkAttempts {
				n.failedTransfers++
				return &DropError{Src: src, Dst: dst}
			}
			continue // retransmit the chunk
		}
		attempts = 0
		remaining -= c
	}
	s.sent += uint64(bytes)
	d.received += uint64(bytes)
	if su != nil {
		su.bytesUp += uint64(bytes)
		du.bytesDown += uint64(bytes)
	}
	return nil
}

// pathBPS returns the bottleneck rate across the hops of a path, honouring
// fail-slow factors.
func (n *Network) pathBPS(s, d *NIC, su, du *uplink) int64 {
	bps := effBPS(s.bps, s.slow)
	if b := effBPS(d.bps, d.slow); b < bps {
		bps = b
	}
	if su != nil {
		if b := effBPS(su.bps, su.slow); b < bps {
			bps = b
		}
		if b := effBPS(du.bps, du.slow); b < bps {
			bps = b
		}
	}
	return bps
}

func effBPS(bps int64, slow float64) int64 {
	if slow <= 1 {
		return bps
	}
	if e := int64(float64(bps) / slow); e > 0 {
		return e
	}
	return 1
}

func (n *Network) pathErr(src, dst string) error {
	if n.down[src] {
		return &DownError{Node: src}
	}
	if n.down[dst] {
		return &DownError{Node: dst}
	}
	if len(n.part) > 0 && n.part[src] != n.part[dst] {
		return &PartitionError{Src: src, Dst: dst}
	}
	return nil
}

// chunkDropped draws the loss coin for a chunk on the src->dst path. With
// no lossy endpoints it is a pair of map lookups and never touches an rng,
// keeping healthy runs byte-identical.
func (n *Network) chunkDropped(src, dst string) bool {
	if len(n.drops) == 0 {
		return false
	}
	if ds := n.drops[src]; ds != nil && ds.rng.Float64() < ds.prob {
		return true
	}
	if ds := n.drops[dst]; ds != nil && ds.rng.Float64() < ds.prob {
		return true
	}
	return false
}

// NICStat is one NIC's traffic snapshot.
type NICStat struct {
	Node          string        `json:"node"`
	BytesSent     uint64        `json:"bytes_sent"`
	BytesReceived uint64        `json:"bytes_received"`
	RetransBytes  uint64        `json:"retrans_bytes,omitempty"`
	TxBusy        time.Duration `json:"tx_busy"`
}

// UplinkStat is one rack uplink's traffic snapshot.
type UplinkStat struct {
	Rack      int           `json:"rack"`
	BPS       int64         `json:"bps"`
	BytesUp   uint64        `json:"bytes_up"`
	BytesDown uint64        `json:"bytes_down"`
	UpBusy    time.Duration `json:"up_busy"`
	DownBusy  time.Duration `json:"down_busy"`
}

// Stats is a deterministic fabric snapshot: NICs in registration order,
// uplinks by rack number.
type Stats struct {
	Racks           int          `json:"racks"`
	NICs            []NICStat    `json:"nics"`
	Uplinks         []UplinkStat `json:"uplinks,omitempty"`
	FailedTransfers uint64       `json:"failed_transfers,omitempty"`
	DroppedChunks   uint64       `json:"dropped_chunks,omitempty"`
}

// Stats snapshots the fabric's traffic counters.
func (n *Network) Stats() *Stats {
	st := &Stats{
		Racks:           n.racks,
		FailedTransfers: n.failedTransfers,
		DroppedChunks:   n.droppedChunks,
	}
	for _, name := range n.order {
		nic := n.nics[name]
		st.NICs = append(st.NICs, NICStat{
			Node:          nic.Node,
			BytesSent:     nic.sent,
			BytesReceived: nic.received,
			RetransBytes:  nic.retrans,
			TxBusy:        nic.txBusy,
		})
	}
	for _, r := range slices.Sorted(maps.Keys(n.uplinks)) {
		u := n.uplinks[r]
		st.Uplinks = append(st.Uplinks, UplinkStat{
			Rack:      u.rack,
			BPS:       u.bps,
			BytesUp:   u.bytesUp,
			BytesDown: u.bytesDown,
			UpBusy:    u.upBusy,
			DownBusy:  u.downBusy,
		})
	}
	return st
}
