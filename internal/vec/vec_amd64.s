//go:build amd64

#include "textflag.h"

// Every kernel here requires n > 0 and n % 4 == 0 (the Go wrappers in
// vec_amd64.go guarantee both) and walks its operands with one byte offset
// in AX up to 4n. Loads are MOVUPS: rows are float32 slices with no 16-byte
// alignment guarantee. Multiplies and adds are lane-wise, each rounded to
// float32 as the scalar Go code rounds it, so the lanes reproduce the
// generic loops bit for bit.

// func dotSSE(a, b *float32, n int64, acc *[4]float32)
TEXT ·dotSSE(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ acc+24(FP), DX
	SHLQ $2, CX
	XORQ AX, AX
	XORPS X0, X0             // lanes s0..s3

dotloop:
	MOVUPS (SI)(AX*1), X1
	MOVUPS (DI)(AX*1), X2
	MULPS X2, X1
	ADDPS X1, X0
	ADDQ $16, AX
	CMPQ AX, CX
	JB   dotloop
	MOVUPS X0, (DX)
	RET

// func dot4SSE(q, r0, r1, r2, r3 *float32, n int64, acc *[16]float32)
TEXT ·dot4SSE(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ acc+48(FP), DX
	SHLQ $2, CX
	XORQ AX, AX
	XORPS X0, X0             // row 0 lanes
	XORPS X1, X1             // row 1 lanes
	XORPS X2, X2             // row 2 lanes
	XORPS X3, X3             // row 3 lanes

dot4loop:
	MOVUPS (SI)(AX*1), X4    // query chunk, shared by the four rows
	MOVUPS (R8)(AX*1), X5
	MULPS X4, X5
	ADDPS X5, X0
	MOVUPS (R9)(AX*1), X6
	MULPS X4, X6
	ADDPS X6, X1
	MOVUPS (R10)(AX*1), X7
	MULPS X4, X7
	ADDPS X7, X2
	MOVUPS (R11)(AX*1), X8
	MULPS X4, X8
	ADDPS X8, X3
	ADDQ $16, AX
	CMPQ AX, CX
	JB   dot4loop
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	RET

// func axpySSE(alpha float32, x, y *float32, n int64)
TEXT ·axpySSE(SB), NOSPLIT, $0-32
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0     // broadcast alpha
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

axpyloop:
	MOVUPS (SI)(AX*1), X1
	MULPS X0, X1
	MOVUPS (DI)(AX*1), X2
	ADDPS X1, X2
	MOVUPS X2, (DI)(AX*1)
	ADDQ $16, AX
	CMPQ AX, CX
	JB   axpyloop
	RET

// func axpy4SSE(w, r0, r1, r2, r3, y *float32, n int64)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), AX
	MOVSS  (AX), X4
	SHUFPS $0x00, X4, X4     // broadcast w[0]
	MOVSS  4(AX), X5
	SHUFPS $0x00, X5, X5
	MOVSS  8(AX), X6
	SHUFPS $0x00, X6, X6
	MOVSS  12(AX), X7
	SHUFPS $0x00, X7, X7
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ y+40(FP), DI
	MOVQ n+48(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

axpy4loop:
	MOVUPS (DI)(AX*1), X0    // y chunk stays in X0 across the four rows
	MOVUPS (R8)(AX*1), X1
	MULPS X4, X1
	ADDPS X1, X0
	MOVUPS (R9)(AX*1), X2
	MULPS X5, X2
	ADDPS X2, X0
	MOVUPS (R10)(AX*1), X3
	MULPS X6, X3
	ADDPS X3, X0
	MOVUPS (R11)(AX*1), X1
	MULPS X7, X1
	ADDPS X1, X0
	MOVUPS X0, (DI)(AX*1)
	ADDQ $16, AX
	CMPQ AX, CX
	JB   axpy4loop
	RET
