// Storage layout: testing the paper's concluding recommendation.
//
// Observation 4 of the paper: HDFS data and MapReduce intermediate data
// have different I/O modes (large-sequential vs small-random), "which
// leads us to configuring their own storage systems according to their I/O
// mode". The paper's testbed therefore dedicates three disks per node to
// each class. This example runs the counterfactual: the same six spindles
// per node, once split 3+3 as in the paper and once pooled so both traffic
// classes share every disk. The result is a genuine trade-off rather than
// a one-sided win: pooling lets each phase of TeraSort spread over six
// spindles instead of three (statistical multiplexing — the job finishes
// faster), while the dedicated layout keeps HDFS's sequential requests out
// of the intermediate data's seek storms (I/O latency stays ~3x lower).
// The paper's recommendation is therefore a latency-isolation choice, and
// the await column below is exactly the evidence it rests on.
//
//	go run ./examples/storagelayout
package main

import (
	"fmt"
	"log"
	"time"

	"iochar/internal/core"
)

func main() {
	fmt.Println("Dedicated (3 HDFS + 3 MR disks/node, the paper's layout) vs")
	fmt.Println("shared (6 pooled disks/node), 1/8192 scale, 16 GB nodes:")
	fmt.Println()
	fmt.Printf("%-4s %-10s %12s %14s %14s\n", "", "layout", "runtime", "await (ms)", "avgrq-sz")
	for _, wk := range []core.Workload{core.TS, core.AGG} {
		var base time.Duration
		for _, shared := range []bool{false, true} {
			rep, err := core.RunOne(wk, core.Factors{
				Slots: core.Slots1x8, MemoryGB: 16, Compress: false,
			}, core.Options{Scale: 8192, SharedDataDisks: shared})
			if err != nil {
				log.Fatal(err)
			}
			name := "dedicated"
			note := ""
			if shared {
				name = "shared"
				if base > 0 {
					note = fmt.Sprintf("  (%+.0f%%)", (rep.Wall.Seconds()/base.Seconds()-1)*100)
				}
			} else {
				base = rep.Wall
			}
			// Under the shared layout both "groups" see the same pooled
			// disks, so one group's numbers describe the whole.
			fmt.Printf("%-4s %-10s %12v %14.2f %14.0f%s\n",
				wk, name, rep.Wall.Round(time.Millisecond),
				rep.HDFS.AwaitMs.MeanNonzero(), rep.HDFS.AvgrqSz.MeanNonzero(), note)
		}
	}
	fmt.Println()
	fmt.Println("The trade-off, measured: pooling finishes TeraSort sooner (each")
	fmt.Println("phase can use all six spindles), but mixing the traffic classes")
	fmt.Println("multiplies I/O waiting time — the interference the paper's")
	fmt.Println("dedicated layout buys out of. Aggregation, with almost no")
	fmt.Println("intermediate traffic, barely notices the layout either way.")
}
