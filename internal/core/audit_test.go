package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"iochar/internal/cluster"
	"iochar/internal/datagen"
	"iochar/internal/faults"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
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

// canonicalKVSum is the whole-file checksum the audit computed before it
// streamed — mapred.NextKV over the assembled file, a sort when a pair is out
// of place — kept as kvSummer's reference model. It hashes a reduce-output KV
// stream as a (key, value)-sorted multiset of pairs and panics on a stream
// NextKV cannot decode.
func canonicalKVSum(data []byte) string {
	h := sha256.New()
	var n [8]byte
	hashPair := func(k, v []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write(k)
		binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write(v)
	}
	// Nearly every stream is (key, value)-sorted as it stands, so hash it in
	// stream order and look for a pair out of place on the way.
	sorted := true
	var prevK, prevV []byte
	for d := data; len(d) > 0 && sorted; {
		var k, v []byte
		k, v, d = mapred.NextKV(d)
		c := bytes.Compare(prevK, k)
		sorted = c < 0 || (c == 0 && bytes.Compare(prevV, v) <= 0)
		hashPair(k, v)
		prevK, prevV = k, v
	}
	if !sorted {
		type pair struct{ k, v []byte }
		var pairs []pair
		for len(data) > 0 {
			var pr pair
			pr.k, pr.v, data = mapred.NextKV(data)
			pairs = append(pairs, pr)
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			if c := bytes.Compare(a.k, b.k); c != 0 {
				return c
			}
			return bytes.Compare(a.v, b.v)
		})
		h.Reset()
		for _, pr := range pairs {
			hashPair(pr.k, pr.v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// streamKVSum sums data as the audit does a file of blockSize-byte blocks.
func streamKVSum(data []byte, blockSize int) (string, error) {
	return batchedKVSum(make([]byte, 0, hashBatch), data, blockSize)
}

// batchedKVSum is streamKVSum with the hash input batched in scratch.
func batchedKVSum(scratch, data []byte, blockSize int) (string, error) {
	return sumBlocks(newKVSummer(scratch), data, blockSize)
}

// sumBlocks writes data to s in blockSize-byte blocks and sums it.
func sumBlocks(s *kvSummer, data []byte, blockSize int) (string, error) {
	for len(data) > 0 {
		n := min(blockSize, len(data))
		if err := s.write(data[:n:n]); err != nil {
			return "", err
		}
		data = data[n:]
	}
	return s.sum()
}

// TestStreamedSumMatchesCanonical: wherever the block boundaries fall —
// inside a length, a key, a value, or every one of them at once — the
// streamed digest of a sorted stream is canonicalKVSum's.
func TestStreamedSumMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	field := func() []byte {
		b := make([]byte, rng.Intn(4)*rng.Intn(4)) // often empty, sometimes a repeat
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return b
	}
	for i := 0; i < 1000; i++ {
		pairs := make([][2][]byte, rng.Intn(8))
		for j := range pairs {
			pairs[j] = [2][]byte{field(), field()}
		}
		if rng.Intn(8) == 0 { // a value long enough for a two-byte length
			pairs = append(pairs, [2][]byte{field(), bytes.Repeat([]byte("v"), 128+rng.Intn(100))})
		}
		slices.SortFunc(pairs, func(a, b [2][]byte) int {
			return cmp.Or(bytes.Compare(a[0], b[0]), bytes.Compare(a[1], b[1]))
		})
		var stream []byte
		for _, pr := range pairs {
			stream = mapred.AppendKV(stream, pr[0], pr[1])
		}
		want := canonicalKVSum(stream)
		for bs := 1; bs <= max(len(stream), 1); bs++ {
			if got, err := streamKVSum(stream, bs); err != nil || got != want {
				t.Fatalf("stream %d (%d bytes) in %d-byte blocks: %s, %v; want %s", i, len(stream), bs, got, err, want)
			}
		}
	}
}

// TestBatchedSumMatchesCanonical: whether a pair fits the hash batch, fills
// it or is larger than all of it, and whether the stream is sorted, sorted by
// key with each key's values in arrival order, or voids the batch it has
// gathered so far by a key out of place, the batched digest is
// canonicalKVSum's — also in a scratch array an earlier summer abandoned
// mid-file, and in a summer reset after abandoning one, as the audit does
// after a read failure — and the batch never outgrows the scratch array.
func TestBatchedSumMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 750; i++ {
		pairs := make([][2][]byte, rng.Intn(12))
		for j := range pairs {
			pairs[j] = [2][]byte{[]byte(fmt.Sprintf("k%02d", rng.Intn(20))), bytes.Repeat([]byte{"vw"[rng.Intn(2)]}, rng.Intn(4)*rng.Intn(40))}
		}
		switch i % 3 {
		case 0:
			slices.SortFunc(pairs, func(a, b [2][]byte) int {
				return cmp.Or(bytes.Compare(a[0], b[0]), bytes.Compare(a[1], b[1]))
			})
		case 1:
			slices.SortStableFunc(pairs, func(a, b [2][]byte) int { return bytes.Compare(a[0], b[0]) })
		}
		var stream []byte
		for _, pr := range pairs {
			stream = mapred.AppendKV(stream, pr[0], pr[1])
		}
		want := canonicalKVSum(stream)
		for _, batch := range []int{0, 1, 16, 19, 40, 100, hashBatch} {
			scratch := make([]byte, 0, batch)
			_ = newKVSummer(scratch).write(stream[:len(stream)/2]) // abandoned, its pairs left in scratch
			for _, bs := range []int{1, 7, max(len(stream), 1)} {
				if got, err := batchedKVSum(scratch, stream, bs); err != nil || got != want {
					t.Fatalf("stream %d, %d-byte batch, %d-byte blocks: %s, %v; want %s\n%q", i, batch, bs, got, err, want, stream)
				}
			}
			s := newKVSummer(scratch)
			_ = s.write(stream[len(stream)/3:]) // abandoned, perhaps mid-pair
			s.reset()
			if got, err := sumBlocks(s, stream, 5); err != nil || got != want {
				t.Fatalf("stream %d, %d-byte batch, a reset summer: %s, %v; want %s\n%q", i, batch, got, err, want, stream)
			}
			// A pair that does not fit is hashed, not appended to a grown buffer.
			if s := newKVSummer(scratch); s.write(stream) != nil || cap(s.buf) != batch {
				t.Fatalf("stream %d: the %d-byte batch grew to %d bytes", i, batch, cap(s.buf))
			}
		}
	}
}

// TestStreamedSumOneKeyOutOfOrder: the streamed form of
// TestCanonicalKVSumOneKeyOutOfOrder, against the same pinned value — an
// out-of-order pair found in any block, however late, voids the running hash.
func TestStreamedSumOneKeyOutOfOrder(t *testing.T) {
	var stream []byte
	for i := 0; i < 50; i++ {
		if i == 25 {
			for _, v := range []string{"a", "c", "b"} {
				stream = mapred.AppendKV(stream, []byte("k025"), []byte(v))
			}
			continue
		}
		stream = mapred.AppendKV(stream, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	const want = "7d8d48326852862afaa0d840484e86c6b37eb13f963d6ff6a6c280be6ee4a6f5"
	for _, bs := range []int{1, 7, 64, len(stream) - 1, len(stream), len(stream) + 1} {
		if got, err := streamKVSum(stream, bs); err != nil || got != want {
			t.Errorf("%d-byte blocks: %s, %v; want %s", bs, got, err, want)
		}
	}
}

// TestSumGroupsOutOfValueOrder: several keys whose values each arrive out of
// order, with pairs straddling every block boundary (some held in the carry,
// one longer than the batch), hash as the sorted stream does — also when a
// key goes backwards after a reordered group, which leaves the group path
// for the whole-file sort.
func TestSumGroupsOutOfValueOrder(t *testing.T) {
	var sorted, grouped []byte
	for _, k := range []string{"alpha", "beta", "delta", "gamma"} {
		vals := []string{"v3", "v10", "", "v1", strings.Repeat("w", 200), "v2", "v2"}
		for _, v := range vals {
			grouped = mapred.AppendKV(grouped, []byte(k), []byte(v))
		}
		slices.Sort(vals)
		for _, v := range vals {
			sorted = mapred.AppendKV(sorted, []byte(k), []byte(v))
		}
	}
	backwards := mapred.AppendKV(slices.Clip(grouped), []byte("beta"), []byte("v0"))
	want, wantBack := canonicalKVSum(sorted), canonicalKVSum(backwards)
	if got := canonicalKVSum(grouped); got != want {
		t.Fatalf("the model sums the grouped stream to %s, the sorted one to %s", got, want)
	}
	for bs := 1; bs <= len(backwards); bs++ {
		for _, batch := range []int{16, hashBatch} {
			if got, err := batchedKVSum(make([]byte, 0, batch), grouped, bs); err != nil || got != want {
				t.Fatalf("%d-byte blocks, %d-byte batch: %s, %v; want %s", bs, batch, got, err, want)
			}
			if got, err := batchedKVSum(make([]byte, 0, batch), backwards, bs); err != nil || got != wantBack {
				t.Fatalf("a key going backwards, %d-byte blocks, %d-byte batch: %s, %v; want %s", bs, batch, got, err, wantBack)
			}
		}
	}
}

// TestStreamedSumReportsTruncation: a stream that ends inside a pair, or
// claims a length the stream does not have, is an error naming where the
// broken pair starts — before and after an out-of-order pair alike.
func TestStreamedSumReportsTruncation(t *testing.T) {
	whole := mapred.AppendKV(mapred.AppendKV(nil, []byte("key-b"), []byte("value")), []byte("key-a"), []byte("value"))
	sorted := whole[:len(whole)/2]
	huge := append(append([]byte(nil), sorted...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 'k') // a 2^63-1 byte key
	for _, tc := range []struct {
		name   string
		stream []byte
		off    int
	}{
		{"cut inside the first value", sorted[:len(sorted)-2], 0},
		{"cut after a key", sorted[:6], 0},
		{"cut inside the pair after an out-of-order one", whole[:len(whole)-1], len(sorted)},
		{"cut inside a length", append(append([]byte(nil), sorted...), 0x80), len(sorted)},
		{"a key length past the end of the stream", huge, len(sorted)},
	} {
		for _, bs := range []int{1, 3, len(tc.stream)} {
			_, err := streamKVSum(tc.stream, bs)
			if want := fmt.Sprintf("truncated KV stream at offset %d", tc.off); err == nil || err.Error() != want {
				t.Errorf("%s, %d-byte blocks: error %v, want %q", tc.name, bs, err, want)
			}
		}
	}
	if _, err := streamKVSum(bytes.Repeat([]byte{0x80}, 11), 4); err == nil || !strings.HasPrefix(err.Error(), "corrupt KV stream") {
		t.Errorf("an eleven-byte uvarint: error %v, want a corrupt-stream report", err)
	}
}

// TestAuditSurvivesMalformedOutput: one output file that ends inside a pair
// is filed under Unreadable and every other output is still summed — the
// whole-file decoder this replaced indexed past the end and took the run
// down.
func TestAuditSurvivesMalformedOutput(t *testing.T) {
	const bad = "/bench/AGG/out/part-r-99999"
	opts := fastOpts
	opts.Audit = true
	var again *AuditReport
	opts.Inspect = func(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
		w := fs.CreateWith(bad, cl.Master.Name, 0)
		stream := mapred.AppendKV(mapred.AppendKV(nil, []byte("a"), []byte("1")), []byte("b"), []byte("2"))
		if err := w.Write(p, stream[:len(stream)-1]); err != nil {
			t.Error(err)
		}
		if err := w.Close(p); err != nil {
			t.Error(err)
		}
		again = auditRun(p, fs, cl)
	}
	rep, err := RunOne(AGG, SlotsRuns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Audit.OutputSums) == 0 || !rep.Audit.Clean() {
		t.Fatalf("the run's own audit: %d outputs, %v", len(rep.Audit.OutputSums), rep.Audit.Violations())
	}
	if want := []string{bad + ": truncated KV stream at offset 4"}; !reflect.DeepEqual(again.Unreadable, want) {
		t.Errorf("Unreadable = %q, want %q", again.Unreadable, want)
	}
	if !reflect.DeepEqual(again.OutputSums, rep.Audit.OutputSums) {
		t.Errorf("the other outputs' sums changed or went missing:\n with the bad file %v\n without it       %v", again.OutputSums, rep.Audit.OutputSums)
	}
}

// FuzzStreamKVSum: no input, however cut into blocks, may panic the streamed
// checksum, and whenever the whole-file form can digest the input at all the
// two agree.
func FuzzStreamKVSum(f *testing.F) {
	sorted := mapred.AppendKV(mapred.AppendKV(nil, []byte("a"), []byte("1")), []byte("b"), nil)
	f.Add(sorted, 1)
	f.Add(sorted, 4)
	f.Add(append(mapred.AppendKV(nil, []byte("z"), []byte("9")), sorted...), 3)
	f.Add(sorted[:len(sorted)-1], 2)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 'k'}, 5)
	// Unsorted streams for the fallback's prefix-keyed sort: fields that tie
	// on their first 8 bytes, a field against itself plus a zero byte (the
	// same padded prefix), and empty fields.
	kvs := func(fields ...string) (b []byte) {
		for i := 0; i < len(fields); i += 2 {
			b = mapred.AppendKV(b, []byte(fields[i]), []byte(fields[i+1]))
		}
		return b
	}
	f.Add(kvs("centroid-9", "12345678;b", "centroid-1", "12345678;a", "centroid-1", "12345678", "centroid", ""), 7)
	f.Add(kvs("a\x00", "v", "a", "v\x00", "a", "v", "a", "", "a\x00", ""), 3)
	f.Add(kvs("b", "", "", "x", "", "", "a", "\x00"), 64)
	// Key-sorted streams whose groups arrive out of value order, cut so that
	// pairs straddle blocks; the last two go backwards after such a group.
	f.Add(kvs("a", "3", "a", "1", "a", "2", "b", "z", "b", "", "c", "y", "c", "x"), 2)
	f.Add(kvs("k1", "12345678;b", "k1", "12345678;a", "k1", "12345678", "k2", "b", "k2", "a"), 5)
	f.Add(kvs("a", "2", "a", "1", "b", "9", "b", "8", "a", "0"), 3)
	f.Add(kvs("", "b", "", "a", "x", "y", "", "c"), 1)
	f.Fuzz(func(t *testing.T, data []byte, blockSize int) {
		if blockSize < 1 {
			blockSize = 1
		}
		got, err := streamKVSum(data, blockSize)
		want, ok := func() (sum string, ok bool) {
			defer func() { ok = recover() == nil }()
			return canonicalKVSum(data), true
		}()
		if ok && (err != nil || got != want) {
			t.Fatalf("%d-byte blocks: streamed %s, %v; whole %s", blockSize, got, err, want)
		}
		if !ok && err == nil {
			t.Fatalf("%d-byte blocks: streamed %s from a stream the whole-file form cannot decode", blockSize, got)
		}
	})
}

// kmeansShapedStream is a clustering job's reduce output of about size
// bytes: a few center keys in byte order, each holding PointGen lines in the
// order the points arrived, which is not value order.
func kmeansShapedStream(size int64) []byte {
	keys := []string{"11", "14", "3", "7"}
	groups := make([][][]byte, len(keys))
	i := 0
	datagen.Lines(datagen.PointGen{Seed: 1}.Part(0, size), func(line []byte) {
		groups[i*7%len(keys)] = append(groups[i*7%len(keys)], line)
		i++
	})
	var stream []byte
	for j, k := range keys {
		for _, v := range groups[j] {
			stream = mapred.AppendKV(stream, []byte(k), v)
		}
	}
	return stream
}

// TestKMeansShapedSumAllocatesLessThanTheStream: a stream whose keys are in
// order and whose values are not is summed group by group, out of the
// blocks, so the audit allocates less than the file it reads — not a copy of
// the whole file plus a 64-byte sort record per pair.
func TestKMeansShapedSumAllocatesLessThanTheStream(t *testing.T) {
	stream := kmeansShapedStream(1 << 20)
	want := canonicalKVSum(stream)
	scratch := make([]byte, 0, hashBatch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := batchedKVSum(scratch, stream, 64<<10)
	runtime.ReadMemStats(&after)
	if err != nil || got != want {
		t.Fatalf("sum %s, %v; want %s", got, err, want)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated to sum a %d-byte stream", alloc, len(stream))
	if alloc >= uint64(len(stream)) {
		t.Errorf("%d bytes allocated to sum a %d-byte stream; want fewer than the stream", alloc, len(stream))
	}
}

// BenchmarkKMeansShapedSum sums a 4 MiB clustering output in 64 KiB blocks.
func BenchmarkKMeansShapedSum(b *testing.B) {
	stream := kmeansShapedStream(4 << 20)
	scratch := make([]byte, 0, hashBatch)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batchedKVSum(scratch, stream, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}
