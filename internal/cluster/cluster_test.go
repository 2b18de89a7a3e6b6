package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"iochar/internal/disk"
	"iochar/internal/sim"
)

func TestDefaultHardwareMatchesTable1(t *testing.T) {
	hw := DefaultHardware(1)
	c, err := New(sim.New(1), DefaultHardware(1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Slaves[0].CPU.Capacity(); got != 12 {
		t.Errorf("cores = %d, want 12 (2 x E5645)", got)
	}
	if hw.MemoryBytes != 32<<30 {
		t.Errorf("Memory = %d, want 32 GB", hw.MemoryBytes)
	}
}

func TestWithMemoryGB(t *testing.T) {
	hw := DefaultHardware(1).WithMemoryGB(16)
	if hw.MemoryBytes != 16<<30 {
		t.Errorf("Memory = %d, want 16 GB", hw.MemoryBytes)
	}
}

func TestCachePagesScaleWithMemory(t *testing.T) {
	small := DefaultHardware(1024).WithMemoryGB(16).CachePagesPerDisk()
	big := DefaultHardware(1024).WithMemoryGB(32).CachePagesPerDisk()
	if big != 2*small {
		t.Errorf("cache pages 16G=%d 32G=%d, want exact doubling", small, big)
	}
}

func TestCachePagesFloor(t *testing.T) {
	hw := DefaultHardware(1 << 40)
	if got := hw.CachePagesPerDisk(); got != 128 {
		t.Errorf("CachePagesPerDisk = %d, want floor 128", got)
	}
}

func TestClusterLayout(t *testing.T) {
	env := sim.New(1)
	c, err := New(env, DefaultHardware(1024), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Slaves) != 10 {
		t.Fatalf("slaves = %d, want 10", len(c.Slaves))
	}
	if len(c.Master.HDFSVols) != 0 {
		t.Error("master should carry no data disks")
	}
	if got := len(c.AllHDFSDisks()); got != 30 {
		t.Errorf("HDFS disks = %d, want 30", got)
	}
	if got := len(c.AllMRDisks()); got != 30 {
		t.Errorf("MR disks = %d, want 30", got)
	}
	for _, s := range c.Slaves {
		if len(s.HDFSVols) != 3 || len(s.MRVols) != 3 {
			t.Errorf("%s vols = %d/%d, want 3/3", s.Name, len(s.HDFSVols), len(s.MRVols))
		}
		for _, v := range s.Vols {
			if d := v.Disk(); d.P.RPM != 7200 {
				t.Errorf("%s RPM = %d, want 7200", d.P.Name, d.P.RPM)
			}
		}
	}
}

func TestComputeQueuesBeyondCores(t *testing.T) {
	env := sim.New(1)
	c, err := New(env, DefaultHardware(1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slaves[0]
	var last time.Duration
	for i := 0; i < 2*cores; i++ {
		env.Go("task", func(p *sim.Proc) {
			n.Compute(p, time.Second)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run(0)
	if last != 2*time.Second {
		t.Errorf("%d tasks on %d cores finished at %v, want 2s", 2*cores, cores, last)
	}
}

func TestVolumeRoundRobin(t *testing.T) {
	env := sim.New(1)
	c, err := New(env, DefaultHardware(1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slaves[0]
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[n.NextMRVol().Disk().P.Name]++
	}
	if len(seen) != 3 {
		t.Errorf("round robin covered %d volumes, want 3", len(seen))
	}
	for name, count := range seen {
		if count != 2 {
			t.Errorf("volume %s used %d times, want 2", name, count)
		}
	}
}

func TestSyncAllFlushesDirtyPages(t *testing.T) {
	env := sim.New(1)
	c, err := New(env, DefaultHardware(1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("w", func(p *sim.Proc) {
		for _, s := range c.Slaves {
			f := s.NextMRVol().Create("x")
			f.Append(p, make([]byte, 64<<10))
		}
		c.SyncAll(p)
		for _, s := range c.Slaves {
			for _, v := range s.MRVols {
				if v.Cache().DirtyPages() != 0 {
					t.Errorf("%s still dirty after SyncAll", s.Name)
				}
			}
		}
	})
	env.Run(0)
}

// A testbed that has run to completion leaves no process and no goroutine
// behind, and nothing outside it keeps it reachable: dropped without Close,
// it is collected. Every page cache, disk and node points at the
// environment, so the environment's finalizer runs only once they are all
// garbage.
func TestFinishedTestbedIsCollectable(t *testing.T) {
	before := settledGoroutines()
	collected := make(chan struct{})
	if live := runWithoutClose(t, collected); live != 0 {
		t.Errorf("%d processes live after the run, want 0", live)
	}
	if n := settledGoroutines(); n != before {
		t.Errorf("%d goroutines after the run, started with %d", n, before)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the finished testbed is still reachable after garbage collection")
		}
	}
}

// runWithoutClose builds a two-slave testbed, dirties every MR volume's
// cache, syncs, runs the simulation dry and drops the testbed without
// Close, returning how many processes it left. collected is closed when the
// testbed's environment is collected.
func runWithoutClose(t *testing.T, collected chan struct{}) int {
	env := sim.New(1)
	runtime.SetFinalizer(env, func(*sim.Env) { close(collected) })
	c, err := New(env, DefaultHardware(1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("w", func(p *sim.Proc) {
		for _, s := range c.Slaves {
			for _, v := range s.MRVols {
				v.Create("x").Append(p, make([]byte, 64<<10))
			}
		}
		c.SyncAll(p)
	})
	if _, err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	return env.Live()
}

// settledGoroutines counts goroutines once the count has stopped moving: a
// process goroutine signals its exit a few instructions before it is gone.
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

func TestNodesShareNetwork(t *testing.T) {
	env := sim.New(1)
	c, err := New(env, DefaultHardware(1024), 2)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("t", func(p *sim.Proc) {
		c.Net.Transfer(p, c.Slaves[0].Name, c.Slaves[1].Name, 1<<20)
	})
	env.Run(0)
	var received uint64
	for _, nic := range c.Net.Stats().NICs {
		if nic.Node == c.Slaves[1].Name {
			received = nic.BytesReceived
		}
	}
	if received != 1<<20 {
		t.Errorf("transfer across cluster nodes failed: slave 1 received %d bytes", received)
	}
}

func TestSharedDataDisksPoolSpindles(t *testing.T) {
	env := sim.New(1)
	hw := DefaultHardware(8192)
	hw.SharedDataDisks = true
	c, err := New(env, hw, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slaves[0]
	if len(n.HDFSVols) != 6 || len(n.MRVols) != 6 {
		t.Fatalf("vols = %d/%d, want 6/6 pooled", len(n.HDFSVols), len(n.MRVols))
	}
	// Both roles must address the same filesystems.
	for i := range n.HDFSVols {
		if n.HDFSVols[i] != n.MRVols[i] {
			t.Errorf("vol %d differs between roles under shared layout", i)
		}
	}
	// A file created through one role is visible through the other.
	env.Go("w", func(p *sim.Proc) {
		f := n.NextHDFSVol().Create("shared-file")
		f.Append(p, make([]byte, 1024))
	})
	env.Run(0)
	found := false
	for _, v := range n.MRVols {
		if v.Size("shared-file") == 1024 {
			found = true
		}
	}
	if !found {
		t.Error("file written via HDFS role invisible via MR role")
	}
}

// A homogeneous fleet may sit on the capacity floor; a heterogeneous one
// must not, and the error names the device class that would have clamped.
func TestHeterogeneousFleetRefusesTheCapacityFloor(t *testing.T) {
	ssd := disk.DataCenterSSD()
	hddFloor := disk.SeagateST1000NM0011().Sectors / disk.MinSectors // largest scale the spindles survive
	ssdFloor := ssd.Sectors / disk.MinSectors
	if ssdFloor >= hddFloor {
		t.Fatalf("the flash drive (%d sectors) is expected to be the smaller device", ssd.Sectors)
	}
	for _, c := range []struct {
		scale int64
		tier  *disk.Params
		want  string // "" = provisions
	}{
		{hddFloor + 1, nil, ""},
		{ssdFloor, &ssd, ""},
		{ssdFloor + 1, &ssd, "intermediate-tier disks"},
		{hddFloor + 1, &ssd, "HDFS data disks"},
	} {
		hw := DefaultHardware(c.scale)
		hw.MRDiskParams = c.tier
		env := sim.New(1)
		_, err := New(env, hw, 2)
		env.Close()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("scale %d, tier %v: %v", c.scale, c.tier != nil, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "floor")):
			t.Errorf("scale %d: error %v, want one naming %q and the floor", c.scale, err, c.want)
		}
	}
}

// Vols lists each distinct volume once, in the order SyncAll flushes them:
// HDFS, then MR unless pooled, then (on the master) metadata. The role
// groups read off it keep their per-role membership.
func TestVolsListEachVolumeOnce(t *testing.T) {
	names := func(n *Node) string {
		var out []string
		for _, v := range n.Vols {
			out = append(out, strings.TrimPrefix(v.Disk().P.Name, n.Name+"."))
		}
		return strings.Join(out, " ")
	}
	for _, tc := range []struct {
		shared   bool
		want     string
		perGroup int
	}{
		{false, "hdfs0 hdfs1 hdfs2 mr0 mr1 mr2", 6},
		{true, "data0 data1 data2 data3 data4 data5", 12},
	} {
		hw := DefaultHardware(8192)
		hw.SharedDataDisks = tc.shared
		c, err := New(sim.New(1), hw, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ProvisionMasterMeta(2); err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Slaves {
			if got := names(s); got != tc.want {
				t.Errorf("shared=%v: %s.Vols = %s, want %s", tc.shared, s.Name, got, tc.want)
			}
		}
		if got := names(c.Master); got != "meta0 meta1" {
			t.Errorf("shared=%v: master.Vols = %s, want meta0 meta1", tc.shared, got)
		}
		if h, m, d := len(c.AllHDFSDisks()), len(c.AllMRDisks()), len(c.DisksByClass(disk.ClassHDD)); h != tc.perGroup || m != tc.perGroup || d != 12 {
			t.Errorf("shared=%v: %d HDFS, %d MR, %d HDD disks; want %d, %d, 12", tc.shared, h, m, d, tc.perGroup, tc.perGroup)
		}
	}
}
