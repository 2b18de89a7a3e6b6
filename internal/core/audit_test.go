package core

import (
	"fmt"
	"reflect"
	"testing"

	"iochar/internal/faults"
	"iochar/internal/mapred"
)

// TestAuditOracles runs the post-run invariant audit on a healthy TeraSort
// and on one that loses a node mid-job: both must come back clean, and the
// canonical output checksums must agree — recovery restored the exact bytes.
func TestAuditOracles(t *testing.T) {
	opts := fastOpts
	opts.Audit = true
	healthy, err := RunOne(TS, tsFaultFactors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Audit == nil {
		t.Fatal("Options.Audit set but RunReport.Audit is nil")
	}
	if !healthy.Audit.Clean() {
		t.Fatalf("healthy run failed its own audit: %v", healthy.Audit.Violations())
	}
	if healthy.Audit.HDFSBlocks == 0 || len(healthy.Audit.OutputSums) == 0 {
		t.Fatalf("audit scanned nothing: %d blocks, %d output files",
			healthy.Audit.HDFSBlocks, len(healthy.Audit.OutputSums))
	}
	for path := range healthy.Audit.OutputSums {
		if !isOutputPath(path) {
			t.Errorf("non-output path %s in OutputSums", path)
		}
	}
	if isOutputPath("/bench/TS/in/part-0") || isOutputPath("/other/TS/out/x") {
		t.Error("isOutputPath misclassifies")
	}

	opts.Faults, err = faults.ParsePlan(killPlan)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := RunOne(TS, tsFaultFactors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.Audit.Clean() {
		t.Fatalf("recovered run failed the audit: %v", faulty.Audit.Violations())
	}
	if !reflect.DeepEqual(healthy.Audit.OutputSums, faulty.Audit.OutputSums) {
		t.Errorf("canonical output checksums diverged under node loss:\n healthy %v\n faulty  %v",
			healthy.Audit.OutputSums, faulty.Audit.OutputSums)
	}
}

// TestAuditOffByDefault: without Options.Audit the report carries no audit —
// part of the healthy path's zero-overhead contract.
func TestAuditOffByDefault(t *testing.T) {
	rep, err := RunOne(AGG, SlotsRuns[0], fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit != nil {
		t.Error("RunReport.Audit set without Options.Audit")
	}
}

// TestCanonicalKVSumPinned pins the output checksum — the value chaos
// oracles and cached reports compare — on a stream with duplicate keys out
// of value order, an empty key and an empty value.
func TestCanonicalKVSumPinned(t *testing.T) {
	var stream []byte
	for i := 0; i < 1000; i++ {
		stream = mapred.AppendKV(stream, []byte(fmt.Sprintf("k%03d", i%97)), []byte(fmt.Sprintf("v%d", (i*7919)%1000)))
	}
	stream = mapred.AppendKV(stream, nil, []byte("empty key"))
	stream = mapred.AppendKV(stream, []byte("empty value"), nil)
	const want = "8d8b51f115349e39e0e0fc6cb214215dbaa7ec8503c62a021d75decaf6d31886" // computed by the append-grown version this replaced
	if got := canonicalKVSum(stream); got != want {
		t.Errorf("canonicalKVSum = %s, want %s", got, want)
	}
	if got := canonicalKVSum(nil); got != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Errorf("canonicalKVSum(nil) = %s, want the SHA-256 of nothing", got)
	}
}

// TestCanonicalKVSumOneKeyOutOfOrder: the shape real reduce output takes
// under faults — key-sorted, one key's values in another order — must
// leave the fast path and hash as the fully sorted stream does.
func TestCanonicalKVSumOneKeyOutOfOrder(t *testing.T) {
	build := func(dupVals ...string) []byte {
		var stream []byte
		for i := 0; i < 50; i++ {
			if i == 25 {
				for _, v := range dupVals {
					stream = mapred.AppendKV(stream, []byte("k025"), []byte(v))
				}
				continue
			}
			stream = mapred.AppendKV(stream, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}
		return stream
	}
	const want = "7d8d48326852862afaa0d840484e86c6b37eb13f963d6ff6a6c280be6ee4a6f5" // computed by the sort-everything version this replaced
	if got := canonicalKVSum(build("a", "b", "c")); got != want {
		t.Errorf("sorted stream: canonicalKVSum = %s, want %s", got, want)
	}
	if got := canonicalKVSum(build("a", "c", "b")); got != want {
		t.Errorf("one key's values out of order: canonicalKVSum = %s, want %s", got, want)
	}
	if got := canonicalKVSum(build("a", "b", "d")); got == want {
		t.Error("a different value hashed to the same sum")
	}
}
