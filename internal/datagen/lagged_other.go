//go:build !amd64

package datagen

// The AVX2 kernel is amd64's alone: elsewhere vector is false and these
// never run.
const hasAVX2 = false

func printable8([]byte, []uint64) int { panic("datagen: no vector kernel on this architecture") }

func addLagged(dst, src []uint64) bool { panic("datagen: no vector kernel on this architecture") }
