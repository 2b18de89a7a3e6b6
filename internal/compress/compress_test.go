package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestIdentityRoundTrip(t *testing.T) {
	c := Identity{}
	src := []byte("hello world")
	if !bytes.Equal(c.Decompress(c.Compress(src)), src) {
		t.Error("identity round trip failed")
	}
	if c.CompressCost(1<<20) != 0 || c.DecompressCost(1<<20) != 0 {
		t.Error("identity must be free")
	}
}

func TestDeflateRoundTrip(t *testing.T) {
	c := NewDeflate()
	src := bytes.Repeat([]byte("abcdefgh12345678"), 4096)
	enc := c.Compress(src)
	if len(enc) >= len(src) {
		t.Errorf("repetitive data did not shrink: %d -> %d", len(src), len(enc))
	}
	if !bytes.Equal(c.Decompress(enc), src) {
		t.Error("deflate round trip failed")
	}
}

func TestDeflateEmptyInput(t *testing.T) {
	c := NewDeflate()
	if got := c.Decompress(c.Compress(nil)); len(got) != 0 {
		t.Errorf("empty round trip returned %d bytes", len(got))
	}
}

func TestDeflateIncompressibleData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 1<<16)
	rng.Read(src)
	c := NewDeflate()
	enc := c.Compress(src)
	if !bytes.Equal(c.Decompress(enc), src) {
		t.Error("random data round trip failed")
	}
	if len(enc) < len(src)*99/100 {
		t.Errorf("random data shrank %d -> %d, expected ~1:1", len(src), len(enc))
	}
}

func TestCostModelLinear(t *testing.T) {
	c := NewDeflate()
	one := c.CompressCost(1 << 20)
	ten := c.CompressCost(10 << 20)
	if ten != 10*one {
		t.Errorf("cost not linear: %v vs 10x%v", ten, one)
	}
	// 250 MB/s => 1 MiB in ~4ms.
	if one < 3*time.Millisecond || one > 5*time.Millisecond {
		t.Errorf("1 MiB compress cost = %v, want ~4ms", one)
	}
	if c.DecompressCost(1<<20) >= one {
		t.Error("decompression should be cheaper than compression")
	}
}

// Property: deflate round-trips arbitrary byte strings exactly.
func TestQuickDeflateRoundTrip(t *testing.T) {
	c := NewDeflate()
	f := func(src []byte) bool {
		return bytes.Equal(c.Decompress(c.Compress(src)), src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: text-like data (small alphabet) always compresses below 90%.
func TestQuickTextCompresses(t *testing.T) {
	c := NewDeflate()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := []string{"the", "quick", "brown", "fox", "jumps", "rank", "page", "key"}
		var buf bytes.Buffer
		for buf.Len() < 32<<10 {
			buf.WriteString(words[rng.Intn(len(words))])
			buf.WriteByte(' ')
		}
		return len(c.Compress(buf.Bytes())) < buf.Len()*9/10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
