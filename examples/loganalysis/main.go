// Log analysis: a custom MapReduce job on the toolkit's building blocks.
//
// The paper motivates SQL-style operators with log analysis. This example
// builds its own workload instead of using a canned one: it generates web
// server access logs, loads them into the simulated HDFS, runs a MapReduce
// job computing per-URL hit counts and total bytes served (with a map-side
// combiner), and reports both the answer and the I/O profile — showing how
// any custom job plugs into the same characterization loop.
//
//	go run ./examples/loganalysis
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/iostat"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// genLogs produces Apache-style access log lines with Zipf-popular URLs.
func genLogs(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 199)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("/page/%d", zipf.Uint64())
		size := rng.Intn(40_000) + 200
		fmt.Fprintf(&buf, "10.0.%d.%d - - [05/Jul/2026:12:%02d:%02d] \"GET %s HTTP/1.1\" 200 %d\n",
			rng.Intn(256), rng.Intn(256), i/60%60, i%60, url, size)
	}
	return buf.Bytes()
}

func main() {
	const scale = 8192
	env := sim.New(7)
	defer env.Close() // unwind the testbed's daemons
	cl, err := cluster.New(env, cluster.DefaultHardware(scale), 4)
	if err != nil {
		log.Fatal(err)
	}
	fs := hdfs.New(env, hdfs.DefaultConfig(scale), cl.Net, cl.Slaves)
	cfg := mapred.DefaultConfig(scale)
	cfg.MapSlots, cfg.ReduceSlots = 4, 1
	rt, err := mapred.New(env, cl, fs, cl.Net, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Load one log shard per slave, as a collector fleet would.
	var inputs []string
	for i, s := range cl.Slaves {
		path := fmt.Sprintf("/logs/part-%d", i)
		fs.Load(path, s.Name, genLogs(int64(i+1), 4000))
		inputs = append(inputs, path)
	}

	job := &mapred.Job{
		Name:   "url-stats",
		Input:  inputs,
		Output: "/out/url-stats",
		Format: mapred.LineFormat{},
		Mapper: mapred.MapperFunc(func(rec []byte, emit func(k, v []byte)) {
			// "... "GET <url> HTTP/1.1" 200 <bytes>"
			f := bytes.Fields(rec)
			if len(f) < 9 {
				return
			}
			emit(f[5], append([]byte("1,"), f[8]...))
		}),
		Combiner:   mapred.ReducerFunc(foldStats),
		Reducer:    mapred.ReducerFunc(foldStats),
		NumReduces: 4,
		Costs:      mapred.CostModel{MapNsPerRecord: 400, MapNsPerByte: 8, ReduceNsPerRecord: 100},
	}

	mon := iostat.NewMonitor(10 * time.Millisecond)
	mon.AddGroup("hdfs", cl.AllHDFSDisks()...)
	mon.AddGroup("mr", cl.AllMRDisks()...)
	mon.Start(env)

	var res *mapred.Result
	env.Go("driver", func(p *sim.Proc) {
		var err error
		res, err = rt.Run(p, job)
		if err != nil {
			log.Fatal(err)
		}
		cl.SyncAll(p)
		mon.Stop(p.Now())

		// Read the answer back and show the top URLs.
		type stat struct {
			url  string
			hits int64
			by   int64
		}
		var all []stat
		for _, path := range fs.List("/out/url-stats/part-r-") {
			rd, err := fs.Open(path, cl.Master.Name)
			if err != nil {
				log.Fatal(err)
			}
			data, err := rd.ReadAt(p, 0, rd.Size())
			if err != nil {
				log.Fatal(err)
			}
			for len(data) > 0 {
				k, v, rest := mapred.NextKV(data)
				data = rest
				hits, by := parseStats(v)
				all = append(all, stat{string(k), hits, by})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].hits > all[j].hits })
		fmt.Println("top URLs by hits:")
		for i := 0; i < 5 && i < len(all); i++ {
			fmt.Printf("  %-12s %6d hits %10d bytes\n", all[i].url, all[i].hits, all[i].by)
		}
	})
	env.Run(0)

	fmt.Printf("\njob: %d maps, %d reduces, %v virtual runtime\n",
		res.MapTasks, res.ReduceTasks, res.Runtime())
	h, m := mon.Report("hdfs"), mon.Report("mr")
	fmt.Printf("HDFS read %.1f MB, avgrq-sz %.0f sectors; intermediate wrote %.1f MB, avgrq-sz %.0f sectors\n",
		float64(h.TotalReadBytes)/(1<<20), h.AvgrqSz.MeanNonzero(),
		float64(m.TotalWrittenBytes)/(1<<20), m.AvgrqSz.MeanNonzero())
}

// foldStats sums "hits,bytes" pairs.
func foldStats(k []byte, vals [][]byte, emit func(k, v []byte)) {
	var hits, by int64
	for _, v := range vals {
		h, b := parseStats(v)
		hits += h
		by += b
	}
	out := strconv.AppendInt(nil, hits, 10)
	out = append(out, ',')
	out = strconv.AppendInt(out, by, 10)
	emit(k, out)
}

func parseStats(v []byte) (hits, by int64) {
	i := bytes.IndexByte(v, ',')
	hits, _ = strconv.ParseInt(string(v[:i]), 10, 64)
	by, _ = strconv.ParseInt(string(v[i+1:]), 10, 64)
	return hits, by
}
