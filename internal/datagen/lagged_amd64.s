#include "textflag.h"

// Int31n(95)'s constants, each broadcast to every lane: the 31-bit mask,
// the rejection bound 2³¹−4 (an output above it is drawn again), the
// reciprocal ⌈2³⁸/95⌉ with its divisor (v·2893451653>>38 is v/95 for every
// v < 2³¹: 2893451653·95 − 2³⁸ = 91 and 91·v < 2³⁸), the byte shuffle that
// gathers bytes 0, 8, 2 and 10 of a 128-bit lane, and eight ' '.
DATA lagconst<>+0(SB)/8, $0x7fffffff
DATA lagconst<>+8(SB)/8, $0x7ffffffc
DATA lagconst<>+16(SB)/8, $2893451653
DATA lagconst<>+24(SB)/8, $95
DATA lagconst<>+32(SB)/8, $0x0a020800
DATA lagconst<>+40(SB)/8, $0x2020202020202020
GLOBL lagconst<>(SB), RODATA|NOPTR, $48

// func printable8(dst []byte, w []uint64) int
//
// Eight outputs a step: v = bits 32–62 of each, any v above the bound ends
// the loop before the group is written, and otherwise v − (v/95)·95 of
// outputs 0–3 (Y0) and 4–7 (Y1, shifted into byte 2 of each lane) are
// gathered to bytes r0 r1 r4 r5 | r2 r3 r6 r7, interleaved by word into
// r0…r7, offset by ' ' and stored as one quadword. Every instruction is
// VEX-encoded: on some CPUs a legacy-SSE store in the loop costs an
// SSE/AVX state transition per step.
TEXT ·printable8(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), DX
	XORQ AX, AX
	CMPQ DX, CX
	CMOVQLT DX, CX
	ANDQ $-8, CX
	JZ   none
	VPBROADCASTQ lagconst<>+0(SB), Y8
	VPBROADCASTQ lagconst<>+8(SB), Y9
	VPBROADCASTQ lagconst<>+16(SB), Y10
	VPBROADCASTQ lagconst<>+24(SB), Y11
	VPBROADCASTQ lagconst<>+32(SB), Y12
	VMOVQ        lagconst<>+40(SB), X13

group:
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VPSRLQ   $32, Y0, Y0
	VPSRLQ   $32, Y1, Y1
	VPAND    Y8, Y0, Y0
	VPAND    Y8, Y1, Y1
	VPCMPGTQ Y9, Y0, Y2
	VPCMPGTQ Y9, Y1, Y3
	VPOR     Y2, Y3, Y2
	VPTEST   Y2, Y2
	JNZ      done
	VPMULUDQ Y10, Y0, Y2
	VPMULUDQ Y10, Y1, Y3
	VPSRLQ   $38, Y2, Y2
	VPSRLQ   $38, Y3, Y3
	VPMULUDQ Y11, Y2, Y2
	VPMULUDQ Y11, Y3, Y3
	VPSUBQ   Y2, Y0, Y0
	VPSUBQ   Y3, Y1, Y1
	VPSLLQ   $16, Y1, Y1
	VPOR     Y1, Y0, Y0
	VPSHUFB  Y12, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPUNPCKLWD X1, X0, X0
	VPADDB   X13, X0, X0
	VMOVQ    X0, (DI)(AX*1)
	ADDQ     $64, SI
	ADDQ     $8, AX
	CMPQ     AX, CX
	JB       group

done:
	VZEROUPPER

none:
	MOVQ AX, ret+48(FP)
	RET

// func addLagged(dst, src []uint64)
TEXT ·addLagged(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   tail

quad:
	VMOVDQU (DI)(AX*8), Y0
	VPADDQ  (SI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      quad
	VZEROUPPER

tail:
	CMPQ AX, CX
	JAE  end
	MOVQ (SI)(AX*8), R8
	ADDQ R8, (DI)(AX*8)
	INCQ AX
	JMP  tail

end:
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET
