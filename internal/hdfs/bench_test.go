package hdfs

import (
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/sim"
)

// BenchmarkReadVerified reads back a loaded replication-3 file of eight
// one-MiB blocks with integrity on, as a map task reads its split: every
// block is checked against its sums before it is served.
func BenchmarkReadVerified(b *testing.B) {
	env := sim.New(1)
	c, err := cluster.New(env, cluster.DefaultHardware(4096), 3)
	if err != nil {
		b.Fatal(err)
	}
	fs := New(env, Config{BlockSize: 1 << 20}, c.Net, c.Slaves)
	fs.EnableIntegrity()
	data := pattern(8 << 20)
	fs.Load("/in", c.Slaves[0].Name, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			r, err := fs.Open("/in", c.Slaves[1].Name)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.ReadBlocks(p, func([]byte) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	env.Run(0)
}
