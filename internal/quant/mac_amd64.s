#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit 28),
// XCR0 says the OS saves XMM and YMM state (bits 1 and 2), and
// CPUID.(7,0):EBX reports AVX2 (bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// One lane's step at one tap: broadcast the lane's weight cell (channels 2c
// and 2c+1 as two int16), multiply-add it against eight pixels' cells in Y8,
// and accumulate. Operands are int8 values in int16, so VPMADDWD's pair sum
// is exact; VPADDD wraps mod 2³² like Go's int32.
#define LANE(off, tmp, acc) \
	VPBROADCASTD off(DX), tmp \
	VPMADDWD     Y8, tmp, tmp \
	VPADDD       tmp, acc, acc

// A whole-row tile's eight cells of a tap, and a packed 2×4 tile's: four
// cells of the tap's row and four of the row below (R9 bytes on).
#define LOAD8(b) \
	VMOVDQU (b), Y8

#define LOAD2X4(b) \
	VMOVDQU     (b), X8 \
	VINSERTI128 $1, (b)(R9*1), Y8, Y8

// The tap loops over every plane, tap row and tap with one tile shape's
// load; each instance ends at the store.
#define AVX2TAPS(LOAD, plane, row, tap) \
plane: \
	MOVQ SI, R11 \
	MOVQ R8, R12 \
row: \
	MOVQ R11, R13 \
	MOVQ BX, R14 \
tap: \
	LOAD(R13) \
	LANE(0, Y9, Y0) \
	LANE(4, Y10, Y1) \
	LANE(8, Y11, Y2) \
	LANE(12, Y12, Y3) \
	LANE(16, Y13, Y4) \
	LANE(20, Y14, Y5) \
	LANE(24, Y15, Y6) \
	LANE(28, Y9, Y7) \
	ADDQ $32, DX \
	ADDQ $4, R13 \
	DECQ R14 \
	JNZ  tap \
	ADDQ R9, R11 \
	DECQ R12 \
	JNZ  row \
	ADDQ R10, SI \
	DECQ CX \
	JNZ  plane \
	JMP  store

// func macTileAVX2(acc *[128]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int)
//
// Y0–Y7 hold lanes 0–7, eight pixels each: one row's at rows 1, two rows'
// four at rows 2. See macTile for the layouts. The caller has
// bounds-checked x and w.
TEXT ·macTileAVX2(SB), NOSPLIT, $0-104
	MOVQ acc+0(FP), DI
	MOVQ x_base+8(FP), SI
	MOVQ w_base+32(FP), DX
	MOVQ cpairs+56(FP), CX
	MOVQ kh+64(FP), R8
	MOVQ kw+72(FP), BX
	MOVQ rowStride+80(FP), R9
	MOVQ planeStride+88(FP), R10
	SHLQ $2, R9                  // cell strides to bytes
	SHLQ $2, R10
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	CMPQ rows+96(FP), $1
	JNE  packed
	AVX2TAPS(LOAD8, plane, row, tap)

packed:
	AVX2TAPS(LOAD2X4, plane2, row2, tap2)

store:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// func hasVNNI() bool
//
// The VNNI body is usable when CPUID.(7,0) reports AVX512F (EBX bit 16),
// AVX512VL (EBX bit 31) and AVX512_VNNI (ECX bit 11), and XCR0 says the OS
// saves XMM, YMM, opmask and ZMM state (0xE6): EVEX instructions fault
// without the last three even at 256 bits. The caller has checked AVX2 and,
// with it, OSXSAVE.
TEXT ·hasVNNI(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80010000, BX
	CMPL BX, $0x80010000
	JNE  done
	SHRL $11, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)

done:
	RET

// A tap's sixteen cells in one tile shape: a whole row's, two rows' eight
// (the second R9 bytes on) or four rows' four (R15 is 3·R9).
#define LOAD16(b, z, y, x) \
	VMOVDQU32 (b), z

#define LOAD2X8(b, z, y, x) \
	VMOVDQU      (b), y \
	VINSERTI64X4 $1, (b)(R9*1), z, z

#define LOAD4X4(b, z, y, x) \
	VMOVDQU      (b), x \
	VINSERTI32X4 $1, (b)(R9*1), z, z \
	VINSERTI32X4 $2, (b)(R9*2), z, z \
	VINSERTI32X4 $3, (b)(R15*1), z, z

// The odd plane's tap, R10 bytes on: straight from memory in a whole-row
// tile, through R8 in a packed one, whose loads take a base register.
#define ODD16 VMOVDQU32 (R13)(R10*1), Z9
#define ODD2X8 LEAQ (R13)(R10*1), R8; LOAD2X8(R8, Z9, Y9, X9)
#define ODD4X4 LEAQ (R13)(R10*1), R8; LOAD4X4(R8, Z9, Y9, X9)

// The tap loops over every pair of planes, tap row and tap with one tile
// shape's loads; each instance ends at the sum of the accumulator sets.
#define VNNITAPS(LOAD, ODD, plane, row, tap, next) \
plane: \
	MOVQ SI, R11 \
	MOVQ DI, R12 \
row: \
	MOVQ R11, R13 \
	MOVQ BX, R14 \
tap: \
	LOAD(R13, Z8, Y8, X8) \
	VPDPWSSD.BCST 0(DX), Z8, Z0 \
	VPDPWSSD.BCST 4(DX), Z8, Z1 \
	VPDPWSSD.BCST 8(DX), Z8, Z2 \
	VPDPWSSD.BCST 12(DX), Z8, Z3 \
	VPDPWSSD.BCST 16(DX), Z8, Z4 \
	VPDPWSSD.BCST 20(DX), Z8, Z5 \
	VPDPWSSD.BCST 24(DX), Z8, Z6 \
	VPDPWSSD.BCST 28(DX), Z8, Z7 \
	CMPQ CX, $1 \
	JEQ  next \
	ODD \
	VPDPWSSD.BCST 0(DX)(AX*1), Z9, Z16 \
	VPDPWSSD.BCST 4(DX)(AX*1), Z9, Z17 \
	VPDPWSSD.BCST 8(DX)(AX*1), Z9, Z18 \
	VPDPWSSD.BCST 12(DX)(AX*1), Z9, Z19 \
	VPDPWSSD.BCST 16(DX)(AX*1), Z9, Z20 \
	VPDPWSSD.BCST 20(DX)(AX*1), Z9, Z21 \
	VPDPWSSD.BCST 24(DX)(AX*1), Z9, Z22 \
	VPDPWSSD.BCST 28(DX)(AX*1), Z9, Z23 \
next: \
	ADDQ $32, DX \
	ADDQ $4, R13 \
	DECQ R14 \
	JNZ  tap \
	ADDQ R9, R11 \
	DECQ R12 \
	JNZ  row \
	ADDQ AX, DX \
	LEAQ (SI)(R10*2), SI \
	SUBQ $2, CX \
	JGT  plane \
	JMP  vsum

// func macTileVNNI(acc *[128]int32, x, w []int32, cpairs, kh, kw, rowStride, planeStride, rows int)
//
// macTileAVX2's contract and layouts at sixteen pixels: one 64-byte load
// takes a tap's sixteen cells of a plane into Z8 — a whole row's, or at
// rows 2 and 4 a ymm or xmm of each row's, inserted — and per lane one
// VPDPWSSD — the exact pair sum added with wraparound, VPMADDWD then VPADDD
// in one instruction — multiplies them by the lane's weight cell, broadcast
// from memory inside it. Of each pair of planes the even one accumulates in
// Z0–Z7 and the odd one, read through R8, in Z16–Z23, so the VPDPWSSDs into
// one accumulator are a plane apart rather than back to back. An odd last
// plane goes into Z0–Z7 alone; the sets are summed before the store. AX is
// the distance in bytes from a plane's weights to its partner's, kh·kw·32;
// CX counts planes left and DI holds kh.
TEXT ·macTileVNNI(SB), NOSPLIT, $0-104
	MOVQ x_base+8(FP), SI
	MOVQ w_base+32(FP), DX
	MOVQ cpairs+56(FP), CX
	MOVQ kh+64(FP), R8
	MOVQ kw+72(FP), BX
	MOVQ rowStride+80(FP), R9
	MOVQ planeStride+88(FP), R10
	SHLQ $2, R9                  // cell strides to bytes
	SHLQ $2, R10
	MOVQ R8, DI                  // DI: kh, until the store
	MOVQ R8, AX
	IMULQ BX, AX
	SHLQ $5, AX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ rows+96(FP), R8
	CMPQ R8, $2
	JEQ  rows2
	JGT  rows4
	VNNITAPS(LOAD16, ODD16, vplane, vrow, vtap, vnext)

rows2:
	VNNITAPS(LOAD2X8, ODD2X8, vplane2, vrow2, vtap2, vnext2)

rows4:
	LEAQ (R9)(R9*2), R15
	VNNITAPS(LOAD4X4, ODD4X4, vplane4, vrow4, vtap4, vnext4)

vsum:
	MOVQ acc+0(FP), DI
	VPADDD Z16, Z0, Z0
	VPADDD Z17, Z1, Z1
	VPADDD Z18, Z2, Z2
	VPADDD Z19, Z3, Z3
	VPADDD Z20, Z4, Z4
	VPADDD Z21, Z5, Z5
	VPADDD Z22, Z6, Z6
	VPADDD Z23, Z7, Z7
	VMOVDQU32 Z0, 0(DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VMOVDQU32 Z5, 320(DI)
	VMOVDQU32 Z6, 384(DI)
	VMOVDQU32 Z7, 448(DI)
	VZEROUPPER
	RET

// One lane's write-back: eight accumulators at off(DI) and the bias at
// boff(DX) become eight int8-range dwords in Y0, in pixel order, all in
// 32-bit lanes: bias add, round-half-away first shift on the magnitude
// (VPMINUD saturates it at 127, or 128 below zero), the sign back, the same
// for the second shift, and the ReLU floor last — rounding is odd and
// monotone, so flooring the result is flooring the accumulator. Exact only
// because the caller has bounded |acc+bias|+half below 2³¹. Clobbers Y1, Y2.
#define FINAL8(off, boff) \
	VPBROADCASTD boff(DX), Y0 \
	VPADDD  off(DI), Y0, Y0 \
	VPABSD  Y0, Y1 \
	VPADDD  Y14, Y1, Y1 \
	VPSRLD  X13, Y1, Y1 \
	VPSRAD  $31, Y0, Y2 \
	VPSUBD  Y2, Y12, Y2 \
	VPMINUD Y2, Y1, Y1 \
	VPSIGND Y0, Y1, Y0 \
	VPABSD  Y0, Y1 \
	VPADDD  Y11, Y1, Y1 \
	VPSRLD  X10, Y1, Y1 \
	VPSIGND Y0, Y1, Y0 \
	VPMAXSD Y9, Y0, Y0

// func finalize8AVX2(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor int)
//
// finalizeTile's assembly body: lane pair p is acc[16p:16p+16] under
// bias[2p] and bias[2p+1], and its eight cells — the even lane's result in
// the low half, the odd lane's shifted into the high half, blended — leave
// in one 32-byte store at dst[p·dstStride]. The caller guarantees
// 1 ≤ shift ≤ 31, 0 ≤ shift2 ≤ 31, |acc+bias| + 2^(shift−1) < 2³¹ for every
// accumulator, and in-bounds slices.
TEXT ·finalize8AVX2(SB), NOSPLIT, $0-112
	MOVQ acc_base+0(FP), DI
	MOVQ dst_base+24(FP), SI
	MOVQ bias_base+48(FP), DX
	MOVQ dstStride+80(FP), R8
	SHLQ $2, R8
	MOVQ shift+88(FP), CX
	VMOVQ CX, X13                 // X13: shift count
	DECQ CX
	MOVL $1, AX
	SHLQ CX, AX
	VMOVQ AX, X14
	VPBROADCASTD X14, Y14        // Y14: half, 1<<(shift-1)
	MOVQ shift2+96(FP), CX
	VMOVQ CX, X10                 // X10: shift2 count
	XORL AX, AX
	TESTQ CX, CX
	JZ   unfused
	DECQ CX
	MOVL $1, AX
	SHLQ CX, AX

unfused:
	VMOVQ AX, X11
	VPBROADCASTD X11, Y11        // Y11: half2, or 0 when shift2 is 0
	MOVQ $127, AX
	VMOVQ AX, X12
	VPBROADCASTD X12, Y12        // Y12: 127
	MOVQ floor+104(FP), AX
	VMOVQ AX, X9
	VPBROADCASTD X9, Y9          // Y9: 0 under ReLU, else -128
	MOVQ pairs+72(FP), CX

pair:
	FINAL8(0, 0)
	VMOVDQA Y0, Y3
	FINAL8(32, 4)
	VPSLLD $16, Y0, Y0
	VPBLENDW $0xAA, Y0, Y3, Y0   // low halves from the even lane
	VMOVDQU Y0, (SI)
	ADDQ $64, DI
	ADDQ R8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  pair
	VZEROUPPER
	RET

// One lane's write-back in 512-bit lanes: sixteen accumulators at off(DI)
// and the bias at boff(DX) become sixteen int8-range dwords in r, in pixel
// order. k marks the negative sums; the round-half-away shift runs on the
// magnitude and a masked subtraction from zero puts the sign back; the
// saturation and the ReLU floor clamp to [floor, 127] — rounding is odd and
// monotone, so flooring the result is flooring the sum. Exact only because
// the caller has bounded |acc+bias|+half below 2³¹.
#define FINAL16(off, boff, r, k) \
	VMOVDQU32   off(DI), r \
	VPADDD.BCST boff(DX), r, r \
	VPCMPGTD    r, Z12, k \
	VPABSD      r, r \
	VPADDD      Z8, r, r \
	VPSRLD      X14, r, r \
	VPSUBD      r, Z12, k, r \
	VPMINSD     Z10, r, r \
	VPMAXSD     Z11, r, r

// The second shift of a fused write-back, on FINAL16's r under its k: a
// rounded value keeps its sum's sign or is 0, so k still marks the negatives.
#define ROUND2(r, k) \
	VPABSD r, r \
	VPADDD Z9, r, r \
	VPSRLD X15, r, r \
	VPSUBD r, Z12, k, r

// func finalize16VNNI(acc []int32, dst []int32, bias []int32, pairs, dstStride, shift, shift2, floor, step, lo, hi, after, rows, rowStride int)
//
// finalize8AVX2's contract for the VNNI body's sixteen-pixel tile: lane pair
// p is acc[32p:32p+32], and its cells leave as rows rows, row r at
// dst[p·dstStride + r·rowStride], under store masks. At step 1 lo selects a
// row's pixels; at step 2, where pixel q goes to dst[2q], VPEXPANDD spreads
// the first eight under lo and the last eight, 64 bytes on, under hi. A
// whole-row tile stores its one row and goes on to the next pair; a packed
// tile's rows are after apart in the tile (the mask of the cells past its
// first row's). Nothing the masks leave out is written; the caller has
// bounds-checked what they select.
TEXT ·finalize16VNNI(SB), NOSPLIT, $0-160
	MOVQ acc_base+0(FP), DI
	MOVQ dst_base+24(FP), SI
	MOVQ bias_base+48(FP), DX
	MOVQ dstStride+80(FP), R8
	SHLQ $2, R8
	MOVQ shift+88(FP), CX
	VMOVQ CX, X14                 // X14: shift count
	DECQ CX
	MOVL $1, AX
	SHLQ CX, AX
	VPBROADCASTD AX, Z8          // Z8: half, 1<<(shift-1)
	MOVQ shift2+96(FP), R9       // R9: shift2, 0 when unfused
	VMOVQ R9, X15
	LEAQ -1(R9), CX
	MOVL $1, AX
	SHLQ CX, AX
	VPBROADCASTD AX, Z9          // Z9: half2 (unused when unfused)
	MOVL $127, AX
	VPBROADCASTD AX, Z10         // Z10: 127
	MOVQ floor+104(FP), AX
	VPBROADCASTD AX, Z11         // Z11: 0 under ReLU, else -128
	VPXORD Z12, Z12, Z12         // Z12: 0
	MOVL $0xFFFF, AX
	VPBROADCASTD AX, Z13         // Z13: the low half of a cell
	MOVQ step+112(FP), BX
	MOVQ lo+120(FP), AX
	KMOVW AX, K2
	MOVQ hi+128(FP), AX
	KMOVW AX, K3
	MOVQ rows+144(FP), R12
	DECQ R12                     // R12: the rows after the first
	MOVQ pairs+72(FP), CX

pair16:
	FINAL16(0, 0, Z0, K1)
	FINAL16(64, 4, Z1, K4)
	TESTQ R9, R9
	JZ   blend
	ROUND2(Z0, K1)
	ROUND2(Z1, K4)

blend:
	VPSLLD $16, Z1, Z1
	VPTERNLOGD $0xF8, Z13, Z0, Z1 // Z1 |= Z0 & Z13
	CMPQ BX, $1
	JNE  spread
	VMOVDQU32 Z1, K2, (SI)
	JMP  rows

spread:
	VPEXPANDD Z1, K2, Z2
	VMOVDQU32 Z2, K2, (SI)
	VEXTRACTI64X4 $1, Z1, Y3
	VPEXPANDD Z3, K3, Z2
	VMOVDQU32 Z2, K3, 64(SI)

rows:
	TESTQ R12, R12
	JNZ  packed

next16:
	ADDQ $128, DI
	ADDQ R8, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  pair16
	VZEROUPPER
	RET

// A packed tile's rows after the first: VPCOMPRESSD under K5 moves each
// row's cells to the front. A packed row holds at most eight pixels, so
// at step 2 lo's mask covers it and hi's is empty.
packed:
	MOVQ after+136(FP), AX
	KMOVW AX, K5
	MOVQ rowStride+152(FP), R10
	SHLQ $2, R10
	MOVQ SI, R11
	MOVQ R12, R13

prow:
	VPCOMPRESSD Z1, K5, Z1
	ADDQ R10, R11
	CMPQ BX, $1
	JNE  pspread
	VMOVDQU32 Z1, K2, (R11)
	JMP  pnext

pspread:
	VPEXPANDD Z1, K2, Z2
	VMOVDQU32 Z2, K2, (R11)

pnext:
	DECQ R13
	JNZ  prow
	JMP  next16
