// Command datagen emits BigDataBench-style synthetic data to stdout, for
// inspecting what the workloads consume or for feeding external tools.
//
// Usage:
//
//	datagen -kind text -bytes 1048576 > terasort.dat    # 100-byte records
//	datagen -kind table -bytes 65536                    # order rows
//	datagen -kind points -bytes 65536                   # K-means points
//	datagen -kind graph -bytes 65536                    # PageRank edges
package main

import (
	"flag"
	"fmt"
	"os"

	"iochar/internal/datagen"
)

func main() {
	var (
		kind = flag.String("kind", "text", "text | table | points | graph")
		size = flag.Int64("bytes", 1<<20, "approximate output volume")
		part = flag.Int("part", 0, "part index, 0 to 16777215 (parts are independent shards)")
		seed = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	// TeraGen's row ids are part<<40 + i in 64 bits: part 1<<24 repeats part 0's.
	if *size < 1 || *part < 0 || *part >= 1<<24 {
		fmt.Fprintf(os.Stderr, "datagen: -bytes must be at least 1 and -part in [0, 16777216), got %d and %d\n", *size, *part)
		os.Exit(2)
	}

	var data []byte
	switch *kind {
	case "text":
		data = datagen.TeraGen{Seed: *seed}.Part(*part, *size)
	case "table":
		data = datagen.OrderGen{Seed: *seed}.Part(*part, *size)
	case "points":
		data = datagen.PointGen{Seed: *seed}.Part(*part, *size)
	case "graph":
		data = datagen.GraphGen{Seed: *seed}.Part(*part, *size)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}
