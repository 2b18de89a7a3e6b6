package main

import (
	"time"

	"iochar/internal/compress"
)

// codecStats is what the timing wrapper counts: calls, bytes on the
// uncompressed side, and host time inside the codec.
type codecStats struct {
	compressCalls, decompressCalls uint64
	compressIn, compressOut        uint64
	decompressOut                  uint64
	compressHost, decompressHost   time.Duration
}

// timingCodec wraps the job's codec for a traced run. Compress and Decompress
// are pure functions of their input — they never block in virtual time — so
// a host-clock span around each call is exact.
type timingCodec struct {
	compress.Codec
	st     *codecStats
	tr     *tracer
	parent int // span the calls hang under
}

func (c timingCodec) Compress(src []byte) []byte {
	id := c.tr.begin(c.parent, "codec.compress")
	t0 := time.Now()
	enc := c.Codec.Compress(src)
	c.st.compressHost += time.Since(t0)
	c.tr.end(id)
	c.st.compressCalls++
	c.st.compressIn += uint64(len(src))
	c.st.compressOut += uint64(len(enc))
	return enc
}

func (c timingCodec) Decompress(enc []byte) []byte {
	id := c.tr.begin(c.parent, "codec.decompress")
	t0 := time.Now()
	raw := c.Codec.Decompress(enc)
	c.st.decompressHost += time.Since(t0)
	c.tr.end(id)
	c.st.decompressCalls++
	c.st.decompressOut += uint64(len(raw))
	return raw
}
