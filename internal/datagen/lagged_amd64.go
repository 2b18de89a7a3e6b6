package datagen

// hasAVX2 is whether this CPU runs AVX2 and the OS saves YMM state: CPUID
// leaf 1 reports OSXSAVE and AVX, XCR0 has bits 1–2 (SSE and AVX state)
// set, and leaf 7 reports AVX2.
var hasAVX2 = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// printable8 is printable's AVX2 kernel: it fills dst[:j] with the bytes
// w[:j] make, for the largest multiple of 8 j ≤ min(len(dst), len(w)) such
// that no output in w[:j] is redrawn. It stops before the first 8-output
// group holding one, leaving that group to the Go loop.
//
//go:noescape
func printable8(dst []byte, w []uint64) int

// addLagged adds src[k] to dst[k] for k in ascending order, four at a time,
// and reports whether any sum is an output Int31n draws again after:
// refill's loops, whose reads trail their writes by 273 or 334 words.
//
//go:noescape
func addLagged(dst, src []uint64) (redraw bool)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)
