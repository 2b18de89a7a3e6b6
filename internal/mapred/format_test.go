package mapred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// chunkings to exercise: tiny chunks stress carry-over, huge chunks reduce
// to the batch case.
var chunkSizes = []int{1, 3, 7, 64, 1024, 1 << 20}

// framed runs the streaming framer over data cut into chunks of size c.
func framed(it recordIter, data []byte, c int) []string {
	fr := newFramer(it)
	var out []string
	for pos := 0; pos < len(data); pos += c {
		end := pos + c
		if end > len(data) {
			end = len(data)
		}
		fr.pending = append(fr.pending, data[pos:end]...)
		fr.frame(func(rec []byte) { out = append(out, string(rec)) })
		if fr.done {
			break
		}
	}
	return out
}

// records invokes fn for every record the split owns, given the bytes of
// readRange() in one piece: the batch reference the framer is tested
// against. For LineFormat, data begins at splitOff.
func (it recordIter) records(data []byte, fn func(rec []byte)) {
	switch f := it.format.(type) {
	case FixedFormat:
		for off := 0; off+f.Size <= len(data); off += f.Size {
			fn(data[off : off+f.Size])
		}
	case LineFormat:
		pos := 0
		if it.splitOff != 0 {
			// Skip the partial first line; it belongs to the prior split.
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				return
			}
			pos = i + 1
		}
		limit := int(it.splitLen) // records starting before splitOff+splitLen are ours
		for pos < len(data) && pos <= limit {
			i := bytes.IndexByte(data[pos:], '\n')
			if i < 0 {
				break // unterminated tail fragment at EOF
			}
			fn(data[pos : pos+i])
			pos += i + 1
		}
	case KVFormat:
		for len(data) > 0 {
			before := len(data)
			_, _, rest := NextKV(data)
			fn(data[:before-len(rest)])
			data = rest
		}
	default:
		panic(fmt.Sprintf("mapred: unknown record format %T", it.format))
	}
}

// batch runs the reference whole-buffer framer.
func batch(it recordIter, data []byte) []string {
	var out []string
	it.records(data, func(rec []byte) { out = append(out, string(rec)) })
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzFramerKV feeds a KVFormat framer arbitrary bytes in chunks of
// arbitrary size, which must never panic (a corrupt-block fault can hand it
// any bytes), and then an AppendKV stream of pairs cut from the same bytes,
// which must frame back into exactly those pairs at every chunking.
func FuzzFramerKV(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(AppendKV(AppendKV(nil, []byte("key"), []byte("value")), nil, nil), uint8(2))
	// A key length of 2^63+5: as an int it wraps negative.
	f.Add(append(binary.AppendUvarint(nil, 1<<63+5), "abcde"...), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 12), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		c := int(chunk)%97 + 1
		framed(recordIter{format: KVFormat{}, fileSize: int64(len(data))}, data, c)

		var stream []byte
		var want []string
		for rest := data; len(rest) > 0; {
			kl := int(rest[0]) % len(rest)
			k, v := rest[1:1+kl], rest[1+kl:]
			v = v[:min(len(v), int(rest[0])/3)]
			stream = AppendKV(stream, k, v)
			want = append(want, string(AppendKV(nil, k, v)))
			rest = rest[1+kl+len(v):]
		}
		it := recordIter{format: KVFormat{}, fileSize: int64(len(stream))}
		for _, size := range append([]int{c}, chunkSizes...) {
			if got := framed(it, stream, size); !equalStrings(got, want) {
				t.Fatalf("chunks of %d framed %q, want %q", size, got, want)
			}
		}
	})
}

// Property: the streaming framer produces exactly the records of the batch
// framer for every format, split geometry and chunking.
func TestQuickFramerMatchesBatch(t *testing.T) {
	f := func(seed int64, splitRaw uint16, nrec uint8) bool {
		n := int(nrec)%60 + 3

		// Line data with variable-length lines.
		var lineData []byte
		for i := 0; i < n; i++ {
			pad := int(((seed+int64(i))%37 + 37) % 37)
			lineData = append(lineData, []byte(fmt.Sprintf("line-%d-%s\n", i, bytes.Repeat([]byte{'x'}, pad)))...)
		}
		// Fixed-format data.
		var fixData []byte
		for i := 0; i < n; i++ {
			rec := make([]byte, 20)
			copy(rec, fmt.Sprintf("%08d", i))
			fixData = append(fixData, rec...)
		}
		// KV data.
		var kvData []byte
		for i := 0; i < n; i++ {
			kvData = AppendKV(kvData, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{'v'}, i%23))
		}

		type cs struct {
			format RecordFormat
			data   []byte
		}
		for _, c := range []cs{
			{LineFormat{}, lineData},
			{FixedFormat{Size: 20}, fixData},
			{KVFormat{}, kvData},
		} {
			fileSize := int64(len(c.data))
			splitOff := int64(splitRaw) % (fileSize + 1)
			splitLen := fileSize - splitOff
			if _, isKV := c.format.(KVFormat); isKV {
				splitOff, splitLen = 0, fileSize // KV is whole-file by contract
			}
			it := recordIter{format: c.format, splitOff: splitOff, splitLen: splitLen, fileSize: fileSize}
			off, length := it.readRange()
			window := c.data[off : off+length]
			want := batch(it, window)
			for _, chunk := range chunkSizes {
				if got := framed(it, window, chunk); !equalStrings(got, want) {
					t.Logf("format %T splitOff %d chunk %d: got %d records, want %d",
						c.format, splitOff, chunk, len(got), len(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every line belongs to exactly one split, whatever the split
// geometry — Hadoop's exactly-once framing law.
func TestQuickLineSplitsExactlyOnce(t *testing.T) {
	f := func(nrec uint8, splitSizeRaw uint16) bool {
		n := int(nrec)%80 + 2
		var data []byte
		for i := 0; i < n; i++ {
			data = append(data, []byte(fmt.Sprintf("r%04d %s\n", i, bytes.Repeat([]byte{'y'}, i%29)))...)
		}
		fileSize := int64(len(data))
		splitSize := int64(splitSizeRaw)%96 + 16
		var got []string
		for off := int64(0); off < fileSize; off += splitSize {
			length := splitSize
			if off+length > fileSize {
				length = fileSize - off
			}
			it := recordIter{format: LineFormat{}, splitOff: off, splitLen: length, fileSize: fileSize}
			ro, rl := it.readRange()
			it.records(data[ro:ro+rl], func(rec []byte) { got = append(got, string(rec)) })
		}
		if len(got) != n {
			t.Logf("splitSize %d: got %d records, want %d", splitSize, len(got), n)
			return false
		}
		for i, rec := range got {
			if want := fmt.Sprintf("r%04d", i); rec[:5] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: fixed records split exactly once too.
func TestQuickFixedSplitsExactlyOnce(t *testing.T) {
	f := func(nrec uint8, splitSizeRaw uint16) bool {
		n := int(nrec)%80 + 2
		const rs = 25
		var data []byte
		for i := 0; i < n; i++ {
			rec := make([]byte, rs)
			copy(rec, fmt.Sprintf("%06d", i))
			data = append(data, rec...)
		}
		fileSize := int64(len(data))
		splitSize := int64(splitSizeRaw)%120 + 10
		count := 0
		for off := int64(0); off < fileSize; off += splitSize {
			length := splitSize
			if off+length > fileSize {
				length = fileSize - off
			}
			it := recordIter{format: FixedFormat{Size: rs}, splitOff: off, splitLen: length, fileSize: fileSize}
			ro, rl := it.readRange()
			if rl == 0 {
				continue
			}
			it.records(data[ro:ro+rl], func(rec []byte) { count++ })
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKVLenPartial(t *testing.T) {
	full := AppendKV(nil, []byte("key"), []byte("value"))
	for i := 0; i < len(full); i++ {
		if n, ok := kvLen(full[:i]); ok {
			t.Errorf("prefix %d reported complete (n=%d)", i, n)
		}
	}
	if n, ok := kvLen(full); !ok || n != len(full) {
		t.Errorf("full pair: n=%d ok=%v, want %d true", n, ok, len(full))
	}
}

func TestNCompares(t *testing.T) {
	if nCompares(0) != 0 || nCompares(1) != 0 {
		t.Error("trivial sizes should cost nothing")
	}
	if nCompares(1024) <= nCompares(512)*1.5 {
		t.Error("n log n should grow superlinearly")
	}
}

// TestCursorLoadMatchesNextKV: the merger's inline decode of one-byte
// lengths agrees with NextKV on either side of the one-byte boundary (0, 127
// and 128 for key and value alike, pair after pair), and a pair cut inside
// its value panics in load as it does in NextKV.
func TestCursorLoadMatchesNextKV(t *testing.T) {
	var r run
	for _, kl := range []int{0, 127, 128} {
		for _, vl := range []int{0, 127, 128} {
			r = AppendKV(r, bytes.Repeat([]byte{byte(kl)}, kl), bytes.Repeat([]byte{byte(vl)}, vl))
		}
	}
	c := cursor{run: r}
	for rest := []byte(r); len(rest) > 0; {
		var k, v []byte
		at := len(r) - len(rest)
		k, v, rest = NextKV(rest)
		if !c.load() || c.pos != at || c.end != len(r)-len(rest) || !bytes.Equal(c.key, k) || !bytes.Equal(c.val, v) || c.prefix != KeyPrefix(k) {
			t.Fatalf("pair at %d: load gave [%d:%d] %d-byte key, %d-byte value; NextKV [%d:%d] %d, %d",
				at, c.pos, c.end, len(c.key), len(c.val), at, len(r)-len(rest), len(k), len(v))
		}
	}
	if c.load() || !c.done || c.prefix != math.MaxUint64 {
		t.Errorf("past the last pair: done %v, prefix %#x", c.done, c.prefix)
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, vl := range []int{5, 127, 128} {
		pair := AppendKV(nil, []byte("key"), bytes.Repeat([]byte("v"), vl))
		cut := pair[:len(pair)-2]
		if !panics(func() { NextKV(cut) }) || !panics(func() { (&cursor{run: cut}).load() }) {
			t.Errorf("%d-byte value cut short: NextKV and load must both panic", vl)
		}
	}
}
