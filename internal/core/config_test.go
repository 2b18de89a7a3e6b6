package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"iochar/internal/journal"
)

// TestDerivedConfigPinned pins what a run hands the subsystems it switches
// on — HDFS failure detection, both masters' journals and the NameNode's
// lease limit, the scrubber's pacing — and the iostat interval, at four
// scales. The goldens pin these values only at the scales they run.
// Regenerate deliberately with IOCHAR_UPDATE_GOLDEN=1.
func TestDerivedConfigPinned(t *testing.T) {
	const path = "testdata/derived_config.txt"
	journalLine := func(c journal.Config) string {
		return fmt.Sprintf("checkpoint=%v retry_base=%v retry_max=%v seed=%d",
			c.CheckpointInterval, c.RetryBase, c.RetryMax, c.Seed)
	}
	var buf strings.Builder
	for _, scale := range []int64{1024, 4096, 65536, 262144} {
		o := Options{Scale: scale, Seed: 1}.withDefaults()
		rec := o.recoveryConfig()
		nn := o.hdfsMasterConfig()
		fmt.Fprintf(&buf, "scale=%d seed=%d\n", scale, o.Seed)
		fmt.Fprintf(&buf, "  sample_interval %v\n", o.SampleInterval)
		fmt.Fprintf(&buf, "  hdfs.EnableRecovery heartbeat=%v dead_timeout=%v\n", rec.HeartbeatInterval, rec.DeadTimeout)
		fmt.Fprintf(&buf, "  hdfs.EnableMaster %s lease_timeout=%v\n", journalLine(nn.Journal), nn.LeaseTimeout)
		fmt.Fprintf(&buf, "  mapred.EnableMaster %s\n", journalLine(o.journalConfig(o.Seed+2)))
		for _, rate := range []int64{-1, 8 << 20} {
			o.ScrubRate = rate
			sc := o.scrubConfig()
			fmt.Fprintf(&buf, "  hdfs.EnableScrubber rate=%d bytes_per_sec=%d pass_interval=%v\n", rate, sc.BytesPerSec, sc.PassInterval)
		}
	}
	got := buf.String()
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("derived configuration diverged from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
