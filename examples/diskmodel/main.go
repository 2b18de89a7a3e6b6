// Disk model tour: why HDFS and MapReduce I/O look so different.
//
// The paper's central qualitative finding is that HDFS traffic is large and
// sequential while MapReduce intermediate traffic is small and random. This
// example strips away the cluster and demonstrates the mechanism on one
// modeled disk + page cache: the same megabytes moved four ways —
// sequential vs scattered, with and without readahead — and the iostat
// metrics each pattern produces.
//
//	go run ./examples/diskmodel
package main

import (
	"fmt"
	"time"

	"iochar/internal/disk"
	"iochar/internal/iostat"
	"iochar/internal/pagecache"
	"iochar/internal/sim"
)

// run moves total bytes through cache+disk in reqSize chunks, sequentially
// or scattered, and returns the resulting iostat aggregates.
func run(sequential, readahead bool, total, reqSize int) (mbps, avgrq, awaitMs float64, elapsed time.Duration) {
	env := sim.New(42)
	defer env.Close() // unwind the disk, writeback and sampler daemons
	p := disk.SeagateST1000NM0011()
	d := disk.New(env, p)
	opts := pagecache.DefaultOptions()
	opts.NoReadahead = !readahead
	cache := pagecache.New(env, d, 1<<16, opts)

	mon := iostat.NewMonitor(50 * time.Millisecond)
	mon.AddGroup("d", d)
	mon.Start(env)

	env.Go("io", func(pr *sim.Proc) {
		rs := &pagecache.ReadState{}
		sectors := int64(reqSize / disk.SectorSize)
		n := int64(total / reqSize)
		for i := int64(0); i < n; i++ {
			var sector int64
			if sequential {
				sector = i * sectors
			} else {
				sector = env.Rand().Int63n(p.Sectors - sectors)
				sector = sector / 8 * 8 // page aligned
			}
			cache.Read(pr, rs, sector, int(sectors))
		}
		elapsed = pr.Now()
		mon.Stop(pr.Now())
	})
	env.Run(0)
	rep := mon.Report("d")
	return rep.RMBs.MeanNonzero(), rep.AvgrqSz.MeanNonzero(), rep.AwaitMs.MeanNonzero(), elapsed
}

func main() {
	const total = 64 << 20 // move 64 MiB each way
	fmt.Println("One Seagate ST1000NM0011 (the paper's disk), 64 MiB moved per pattern:")
	fmt.Printf("%-34s %10s %10s %10s %12s\n", "pattern", "MB/s", "avgrq-sz", "await(ms)", "elapsed")
	cases := []struct {
		name       string
		sequential bool
		readahead  bool
		reqSize    int
	}{
		{"sequential 64KB + readahead", true, true, 64 << 10},
		{"sequential 64KB, no readahead", true, false, 64 << 10},
		{"random 64KB", false, false, 64 << 10},
		{"random 4KB (spill-like)", false, false, 4 << 10},
	}
	for _, c := range cases {
		mbps, rq, aw, el := run(c.sequential, c.readahead, total, c.reqSize)
		fmt.Printf("%-34s %10.1f %10.0f %10.2f %12v\n", c.name, mbps, rq, aw, el.Round(time.Millisecond))
	}
	fmt.Println("\nThe 100x spread between the first and last rows is the paper's")
	fmt.Println("HDFS-vs-MapReduce contrast in miniature: request size and")
	fmt.Println("sequentiality, not device speed, decide everything.")
}
