// Package cluster assembles simulated nodes into the paper's testbed: one
// master and ten slaves, each with two six-core Xeon E5645 processors, 16 or
// 32 GB of memory, a 1 GbE NIC, and seven 1 TB Seagate disks — one for the
// OS, three dedicated to HDFS data and three to MapReduce intermediate data
// (Table 1 of the paper).
//
// Because simulating terabyte inputs byte-for-byte is unnecessary for shape
// reproduction, Hardware carries a Scale divisor: capacities (disk size,
// page-cache budget) shrink by Scale while all *timing* parameters stay
// fixed. Upper layers (HDFS block size, sort buffers, input volumes) apply
// the same divisor, preserving every ratio the paper's effects depend on.
package cluster

import (
	"fmt"
	"slices"
	"time"

	"iochar/internal/disk"
	"iochar/internal/localfs"
	"iochar/internal/netsim"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

// Table 1's fixed node hardware: every slave has disksPerRole drives for
// HDFS data and disksPerRole for MapReduce intermediate data, all the Seagate
// ST1000NM0011 (disk.SeagateST1000NM0011), and a 1 GbE NIC; memReservedFrac
// of memory is unavailable to the page cache (OS, DataNode/TaskTracker
// daemons, task JVM heaps).
const (
	cores           = 12 // physical cores, 2 × 6 for dual E5645
	disksPerRole    = 3
	netBPS          = 125 << 20 // bytes/second each direction
	memReservedFrac = 0.25
)

// Hardware describes one node's resources, defaulting to the paper's
// Table 1 configuration.
type Hardware struct {
	MemoryBytes int64 // 16 or 32 GB in the paper's experiments
	Scale       int64 // capacity divisor (1 = paper scale)

	// Racks splits the fleet across this many top-of-rack switches (0 or 1
	// keeps the paper's flat single-switch fabric). Slave i lands in rack
	// i mod Racks; the master shares rack 0. UplinkBPS is the per-direction
	// bandwidth of each rack's uplink to the aggregation layer (0 = match
	// the NIC, i.e. non-oversubscribed).
	Racks     int
	UplinkBPS int64

	// ReadaheadMaxPages caps each page cache's readahead window (see
	// pagecache.New).
	ReadaheadMaxPages int

	// SharedDataDisks pools all 2 × disksPerRole data disks: HDFS block
	// files and MapReduce intermediate files share every spindle, instead
	// of the paper testbed's dedicated 3+3 split. The paper's observation 4
	// recommends the dedicated layout because the two traffic classes have
	// incompatible access patterns; this switch lets that claim be tested.
	SharedDataDisks bool

	// MRDiskParams, when non-nil, provisions the intermediate-data volumes
	// on this device instead of Table 1's drive — the storage-tier hook
	// (flash intermediate tier). HDFS data disks always use that drive; nil
	// keeps the paper's all-mechanical testbed. A heterogeneous fleet is
	// scaled strictly: a Scale that would clamp either class to the capacity
	// floor is an error, not a silent equalization of the two capacities.
	// Incompatible with SharedDataDisks — one pooled set of spindles
	// cannot be two device classes.
	MRDiskParams *disk.Params
}

// DefaultHardware returns the Table 1 node at the given scale divisor with
// 32 GB of memory (use WithMemoryGB for the 16 GB variant).
func DefaultHardware(scale int64) Hardware {
	if scale <= 0 {
		scale = 1
	}
	return Hardware{
		MemoryBytes:       32 << 30,
		Scale:             scale,
		ReadaheadMaxPages: pagecache.DefaultReadaheadPages,
	}
}

// WithMemoryGB returns a copy with the given physical memory.
func (h Hardware) WithMemoryGB(gb int) Hardware {
	h.MemoryBytes = int64(gb) << 30
	return h
}

// CachePagesPerDisk returns the page-cache budget for each data disk: the
// cacheable fraction of memory, scaled, split across the data disks.
func (h Hardware) CachePagesPerDisk() int {
	cacheable := float64(h.MemoryBytes) * (1 - memReservedFrac) / float64(h.Scale)
	pages := int(cacheable / (2 * disksPerRole) / pagecache.PageSize)
	// Floor of 512 KiB per disk: below this, concurrent stream readahead
	// windows cannot coexist at all, which no real deployment exhibits.
	if pages < 128 {
		pages = 128
	}
	return pages
}

// Node is one simulated machine.
type Node struct {
	Name string
	HW   Hardware
	Rack int
	CPU  *sim.Resource

	HDFSVols []*localfs.FS // one filesystem per HDFS data disk
	MRVols   []*localfs.FS // one filesystem per intermediate-data disk
	// MetaVols are the master's metadata volumes (NameNode edit log and
	// fsimage, JobTracker job journal). Empty everywhere except on a master
	// provisioned via ProvisionMasterMeta — the paper's testbed masters do
	// no data I/O, so these exist only when master recovery is modeled.
	MetaVols []*localfs.FS
	// Vols lists each of the node's distinct volumes once: the HDFS
	// volumes, then the intermediate ones unless SharedDataDisks pooled
	// them with the HDFS ones, then the metadata volumes. Every loop over all
	// of a node's volumes or disks reads it; the role lists above hold the
	// same volumes.
	Vols []*localfs.FS

	mrNext   int  // round-robin cursor for intermediate volumes
	hdfsNext int  // round-robin cursor for HDFS volumes
	down     bool // fail-stop crashed (fault injection)
	inc      int  // crash count; see Incarnation
}

// Alive reports whether the node has not been fail-stopped.
func (n *Node) Alive() bool { return !n.down }

// Incarnation counts the node's crashes. A task attempt snapshots it at
// start and treats any later change as "my machine died under me" — Alive
// alone cannot distinguish a crash-and-restart from uninterrupted life, and
// an attempt that sleeps through a bounce would otherwise resume against
// intermediate files the crash truncated.
func (n *Node) Incarnation() int { return n.inc }

// SetDown marks the node crashed or recovered. Pure state; callers (the
// fault injector) are responsible for also severing the network and
// notifying HDFS/MapReduce control planes.
func (n *Node) SetDown(down bool) {
	if down && !n.down {
		n.inc++
	}
	n.down = down
}

// Compute charges d of CPU time on one core, queueing when all cores are
// busy — the mechanism by which task-slot counts above the core count stop
// helping.
func (n *Node) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	n.CPU.Use(p, 1, d)
}

// NextMRVol returns intermediate-data volumes round-robin, mirroring
// Hadoop's mapred.local.dir rotation across the three dedicated disks.
// Fail-stopped volumes are skipped, as Hadoop drops bad mapred.local.dir
// entries; with every volume failed it panics (an unusable node should have
// been fail-stopped whole instead).
func (n *Node) NextMRVol() *localfs.FS {
	for range n.MRVols {
		v := n.MRVols[n.mrNext%len(n.MRVols)]
		n.mrNext++
		if !v.Failed() {
			return v
		}
	}
	panic(fmt.Sprintf("cluster: all intermediate volumes failed on %s (down=%v inc=%d)", n.Name, n.down, n.inc))
}

// NextHDFSVol returns HDFS data volumes round-robin, mirroring the
// DataNode's dfs.data.dir rotation. Fail-stopped volumes are skipped.
func (n *Node) NextHDFSVol() *localfs.FS {
	for range n.HDFSVols {
		v := n.HDFSVols[n.hdfsNext%len(n.HDFSVols)]
		n.hdfsNext++
		if !v.Failed() {
			return v
		}
	}
	panic(fmt.Sprintf("cluster: all HDFS volumes failed on %s (down=%v inc=%d)", n.Name, n.down, n.inc))
}

// FindNode returns the named node (master or slave), or nil.
func (c *Cluster) FindNode(name string) *Node {
	if c.Master != nil && c.Master.Name == name {
		return c.Master
	}
	for _, s := range c.Slaves {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Cluster is the full testbed.
type Cluster struct {
	Env    *sim.Env
	Net    *netsim.Network
	Master *Node
	Slaves []*Node
}

// New builds a cluster of one master and nSlaves slaves, all with hardware
// hw. The master carries no data disks in the experiments (NameNode and
// JobTracker only), matching the paper's 1+10 layout.
func New(env *sim.Env, hw Hardware, nSlaves int) (*Cluster, error) {
	if nSlaves <= 0 {
		return nil, fmt.Errorf("cluster: need at least one slave, got %d", nSlaves)
	}
	if hw.MRDiskParams != nil && hw.SharedDataDisks {
		return nil, fmt.Errorf("cluster: SharedDataDisks pools one set of spindles and cannot combine with a dedicated intermediate-tier device (MRDiskParams)")
	}
	racks := hw.Racks
	if racks <= 0 {
		racks = 1
	}
	if racks > nSlaves {
		return nil, fmt.Errorf("cluster: %d racks but only %d slaves", racks, nSlaves)
	}
	net := netsim.New(env, netBPS, 100_000) // 100 µs
	if racks > 1 {
		net.SetRacks(racks, hw.UplinkBPS)
	}
	c := &Cluster{Env: env, Net: net}
	master, err := newNode(env, net, MasterName, hw, 0, false)
	if err != nil {
		return nil, err
	}
	c.Master = master
	for i := 0; i < nSlaves; i++ {
		s, err := newNode(env, net, SlaveName(i), hw, i%racks, true)
		if err != nil {
			return nil, err
		}
		c.Slaves = append(c.Slaves, s)
	}
	return c, nil
}

// MasterName names the master node.
const MasterName = "master"

// SlaveName names slave i, from 0.
func SlaveName(i int) string { return fmt.Sprintf("slave-%02d", i) }

// SlaveIndex inverts SlaveName: false for a name no slave has.
func SlaveIndex(name string) (int, bool) {
	var i int
	_, err := fmt.Sscanf(name, "slave-%d", &i)
	return i, err == nil && i >= 0 && SlaveName(i) == name
}

// VolsPerRole is the number of HDFS volumes a slave has, and of
// intermediate ones: pooled, both roles share all its data disks.
func VolsPerRole(pooled bool) int {
	if pooled {
		return 2 * disksPerRole
	}
	return disksPerRole
}

func newNode(env *sim.Env, net *netsim.Network, name string, hw Hardware, rack int, dataDisks bool) (*Node, error) {
	n := &Node{
		Name: name,
		HW:   hw,
		Rack: rack,
		CPU:  sim.NewResource(env, name+".cpu", cores),
	}
	net.AddNodeRack(name, rack)
	if !dataDisks {
		return n, nil
	}
	// A homogeneous fleet may sit on the capacity floor (the CLIs warn); a
	// heterogeneous one may not, or its two capacities stop being
	// proportional.
	drive := disk.SeagateST1000NM0011()
	hdfsP, clamped := drive.Scaled(hw.Scale)
	mrP := hdfsP
	if hw.MRDiskParams != nil {
		if clamped {
			return nil, floorError("HDFS data disks", drive, hw.Scale)
		}
		if mrP, clamped = hw.MRDiskParams.Scaled(hw.Scale); clamped {
			return nil, floorError("intermediate-tier disks", *hw.MRDiskParams, hw.Scale)
		}
	}
	pages := hw.CachePagesPerDisk()
	mkvol := func(p disk.Params, role string, i int) *localfs.FS {
		p.Name = fmt.Sprintf("%s.%s%d", name, role, i)
		d := disk.New(env, p)
		cache := pagecache.New(env, d, pages, hw.ReadaheadMaxPages)
		return localfs.New(d, cache)
	}
	if hw.SharedDataDisks {
		// One pooled set of spindles; both roles rotate over all of them.
		for i := 0; i < 2*disksPerRole; i++ {
			fs := mkvol(hdfsP, "data", i)
			n.HDFSVols = append(n.HDFSVols, fs)
			n.MRVols = append(n.MRVols, fs)
		}
		n.Vols = n.HDFSVols
		return n, nil
	}
	for i := 0; i < disksPerRole; i++ {
		n.HDFSVols = append(n.HDFSVols, mkvol(hdfsP, "hdfs", i))
	}
	for i := 0; i < disksPerRole; i++ {
		n.MRVols = append(n.MRVols, mkvol(mrP, "mr", i))
	}
	n.Vols = slices.Concat(n.HDFSVols, n.MRVols)
	return n, nil
}

func floorError(role string, p disk.Params, scale int64) error {
	return fmt.Errorf("cluster: %s: disk: scaling %s by %d yields %d sectors, below the %d-sector floor; lower -scale so heterogeneous capacities stay proportional",
		role, p.Name, scale, p.Sectors/scale, disk.MinSectors)
}

// ProvisionMasterMeta equips the master with n metadata volumes
// ("master.meta0", ...) on the fleet's mechanical disk parameters. The
// volumes carry the NameNode edit log / fsimage and the JobTracker job
// journal, so master metadata I/O shows up in iostat like any other
// device. Called only when master recovery is enabled: a run without it
// builds the exact cluster the seed built. Calling twice is an error.
func (c *Cluster) ProvisionMasterMeta(n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster: need at least one master meta volume, got %d", n)
	}
	if len(c.Master.MetaVols) > 0 {
		return fmt.Errorf("cluster: master meta volumes already provisioned")
	}
	hw := c.Master.HW
	p, _ := disk.SeagateST1000NM0011().Scaled(hw.Scale)
	pages := hw.CachePagesPerDisk()
	for i := 0; i < n; i++ {
		pp := p
		pp.Name = fmt.Sprintf("%s.meta%d", c.Master.Name, i)
		d := disk.New(c.Env, pp)
		cache := pagecache.New(c.Env, d, pages, hw.ReadaheadMaxPages)
		c.Master.MetaVols = append(c.Master.MetaVols, localfs.New(d, cache))
	}
	c.Master.Vols = append(c.Master.Vols, c.Master.MetaVols...)
	return nil
}

// AllHDFSDisks returns every HDFS data disk across the slaves, for iostat
// grouping.
func (c *Cluster) AllHDFSDisks() []*disk.Disk {
	return c.slaveDisks(func(n *Node, v *localfs.FS) bool { return slices.Contains(n.HDFSVols, v) })
}

// AllMRDisks returns every intermediate-data disk across the slaves.
func (c *Cluster) AllMRDisks() []*disk.Disk {
	return c.slaveDisks(func(n *Node, v *localfs.FS) bool { return slices.Contains(n.MRVols, v) })
}

// DisksByClass returns every data disk of the given device class across the
// slaves, in provisioning order — for the per-class iostat groups of a
// tiered run.
func (c *Cluster) DisksByClass(class disk.Class) []*disk.Disk {
	return c.slaveDisks(func(_ *Node, v *localfs.FS) bool { return v.Disk().Class() == class })
}

// slaveDisks returns the disks of the slaves' volumes that keep selects,
// walking each slave's Vols in order.
func (c *Cluster) slaveDisks(keep func(*Node, *localfs.FS) bool) []*disk.Disk {
	var out []*disk.Disk
	for _, s := range c.Slaves {
		for _, v := range s.Vols {
			if keep(s, v) {
				out = append(out, v.Disk())
			}
		}
	}
	return out
}

// SyncAll flushes every page cache on every slave, then on the master — the
// end-of-run barrier so iostat captures all writes. Dead nodes and failed
// volumes are skipped — their unwritten cache contents are lost, as on real
// hardware.
func (c *Cluster) SyncAll(p *sim.Proc) {
	for _, n := range slices.Concat(c.Slaves, []*Node{c.Master}) {
		for _, v := range n.Vols {
			if n.Alive() && !v.Failed() {
				v.Cache().Sync(p)
			}
		}
	}
}
