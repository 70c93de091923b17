#include "textflag.h"

// The element-wise passes, eight cells a vector on both assembly bodies, bit
// for bit the plain loops in kernels.go that finish each row.

// One channel of argmaxAVX2: Y3 steps to the channel whose values are in Y4;
// where they beat the best so far (Y1) strictly, they and it (into Y2) win.
#define BEST \
	VPSUBD    Y15, Y3, Y3 \
	VPCMPGTD  Y1, Y4, Y5 \
	VPMAXSD   Y4, Y1, Y1 \
	VPBLENDVB Y5, Y3, Y2, Y2

// func argmaxAVX2(dst []uint8, x []int32, c, planeStride int)
//
// argmaxChannelsInt8 for len(dst)/8 vectors of pixels: x is plane 0's first,
// planes planeStride cells apart, one load a plane for its two channels. A
// strict greater-than leaves ties with the lowest channel; the winners leave
// as bytes, truncated like uint8(v).
TEXT ·argmaxAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	SHRQ $3, BX
	JZ   adone
	MOVQ x_base+24(FP), SI
	MOVQ c+48(FP), R8
	MOVQ planeStride+56(FP), R9
	SHLQ $2, R9                  // cells to bytes
	VPCMPEQD Y15, Y15, Y15       // Y15: −1, subtracted to step a channel
	VPSRLD $24, Y15, Y14         // Y14: the byte uint8 keeps
avec:
	MOVQ SI, R10                 // R10: the plane at hand, in Y0
	VMOVDQU (R10), Y0
	VPSLLD $16, Y0, Y1
	VPSRAD $16, Y1, Y1           // Y1: channel 0, the first best
	VPXOR  Y2, Y2, Y2
	VPXOR  Y3, Y3, Y3
	MOVQ R8, CX                  // CX: channels left, counting this one
ach:
	DECQ CX
	JZ   apack
	VPSRAD $16, Y0, Y4           // the plane's odd channel
	BEST
	DECQ CX
	JZ   apack
	ADDQ R9, R10
	VMOVDQU (R10), Y0
	VPSLLD $16, Y0, Y4
	VPSRAD $16, Y4, Y4           // the next plane's even channel
	BEST
	JMP  ach
apack:
	VPAND Y14, Y2, Y2
	VEXTRACTI128 $1, Y2, X4
	VPACKUSDW X4, X2, X2
	VPACKUSWB X2, X2, X2
	VMOVQ X2, (DI)
	ADDQ $8, DI
	ADDQ $32, SI
	DECQ BX
	JNZ  avec
adone:
	VZEROUPPER
	RET

// func maxPoolAVX2(dst, top, bot []int32)
//
// maxPoolInt8's pooling for len(dst)/8 vectors of output cells from sixteen
// cells of each input row: VPMAXSW takes a cell's two int16 halves against
// the cell below at once, VPSHUFD $0xB1 and a second VPMAXSW its right
// neighbour, and VSHUFPS then VPERMQ keep the even cells in order.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	JZ   pdone
	MOVQ top_base+24(FP), SI
	MOVQ bot_base+48(FP), DX
pvec:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPMAXSW (DX), Y0, Y0
	VPMAXSW 32(DX), Y1, Y1
	VPSHUFD $0xB1, Y0, Y2
	VPSHUFD $0xB1, Y1, Y3
	VPMAXSW Y2, Y0, Y0
	VPMAXSW Y3, Y1, Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMQ  $0xD8, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  pvec
pdone:
	VZEROUPPER
	RET

DATA qconst<>+0(SB)/8, $127.0
DATA qconst<>+8(SB)/8, $-128.0
DATA qconst<>+16(SB)/8, $0.5
GLOBL qconst<>(SB), RODATA|NOPTR, $24

// quantizeOne on four float32 at src into four int32 in x (y its 256-bit
// name), in its float64 arithmetic: widen, scale, NaN to 0, clamp, add
// copysign(0.5, v), truncate; v − 0.5 is −(0.5 − v) exactly. Clobbers Y6.
#define Q4(src, y, x) \
	VCVTPS2PD   src, y \
	VMULPD      Y15, y, y \
	VCMPPD      $7, y, y, Y6 \
	VANDPD      Y6, y, y \
	VMINPD      Y14, y, y \
	VMAXPD      Y13, y, y \
	VANDPD      Y12, y, Y6 \
	VORPD       Y11, Y6, Y6 \
	VADDPD      Y6, y, y \
	VCVTTPD2DQY y, x

// func quantizeAVX2(dst []int32, even, odd []float32, scale float64)
//
// quantizeCells for len(dst)/8 vectors of cells: even's values into the low
// halves, odd's into the high ones (0 when odd is empty: a lone channel).
// even, and odd unless it is empty, are as long as dst.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	JZ   qdone
	MOVQ even_base+24(FP), SI
	MOVQ odd_base+48(FP), DX
	MOVQ odd_len+56(FP), BX
	VBROADCASTSD scale+72(FP), Y15    // Y15: 2^fp
	VBROADCASTSD qconst<>+0(SB), Y14  // Y14: 127
	VBROADCASTSD qconst<>+8(SB), Y13  // Y13: −128
	VBROADCASTSD qconst<>+16(SB), Y11 // Y11: 0.5
	VPCMPEQQ Y12, Y12, Y12
	VPSLLQ $63, Y12, Y12              // Y12: the sign bit
qvec:
	Q4((SI), Y0, X0)
	Q4(16(SI), Y1, X1)
	VINSERTI128 $1, X1, Y0, Y0
	VPXOR Y1, Y1, Y1
	TESTQ BX, BX
	JZ   qstore
	Q4((DX), Y1, X1)
	Q4(16(DX), Y2, X2)
	VINSERTI128 $1, X2, Y1, Y1
	VPSLLD $16, Y1, Y1
	ADDQ $32, DX
qstore:
	VPBLENDW $0xAA, Y1, Y0, Y0        // low halves from even
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  qvec
qdone:
	VZEROUPPER
	RET
