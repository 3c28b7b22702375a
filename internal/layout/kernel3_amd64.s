//go:build !purego

#include "textflag.h"

// PAIR adds columns off/8 and off/8+1 of one entry into acc:
// acc += (v·A[c])·B[c] per lane, with X8 = (v, v), SI the entry's A row
// and DI its B row. The loads are unaligned, so they are separate MOVUPDs
// rather than memory operands of MULPD.
#define PAIR(off, acc) \
	MOVUPD off(SI), X9; \
	MULPD  X8, X9; \
	MOVUPD off(DI), X10; \
	MULPD  X10, X9; \
	ADDPD  X9, acc

// SINGLE is PAIR for one column, in acc's low lane.
#define SINGLE(off, acc) \
	MOVSD off(SI), X9; \
	MULSD X8, X9; \
	MOVSD off(DI), X10; \
	MULSD X10, X9; \
	ADDSD X9, acc

// FLUSH adds acc's two lanes into columns off/8 and off/8+1 of out (AX).
#define FLUSH(off, acc) \
	MOVUPD off(AX), X9; \
	ADDPD  acc, X9; \
	MOVUPD X9, off(AX)

// FLUSH1 is FLUSH for one column, from acc's low lane.
#define FLUSH1(off, acc) \
	MOVSD off(AX), X9; \
	ADDSD acc, X9; \
	MOVSD X9, off(AX)

// func accumulateBlock3(out, fa, fb *float64, stride int, vals *float64, ca, cb *int32, n, w int)
//
// Registers: X0–X7 hold columns 0–15 of the row accumulator, two per
// register; X8 is the entry's value in both lanes; R8/R9 are the factor
// bases, R10 their row stride in bytes; R11/R12/R13 walk vals, ca and cb;
// CX counts entries down; DX is the block width w.
TEXT ·accumulateBlock3(SB), NOSPLIT, $0-72
	MOVQ fa+8(FP), R8
	MOVQ fb+16(FP), R9
	MOVQ stride+24(FP), R10
	SHLQ $3, R10
	MOVQ vals+32(FP), R11
	MOVQ ca+40(FP), R12
	MOVQ cb+48(FP), R13
	MOVQ n+56(FP), CX
	MOVQ w+64(FP), DX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

entry:
	MOVSD    (R11), X8
	UNPCKLPD X8, X8
	MOVL     (R12), AX
	IMULQ    R10, AX
	LEAQ     (R8)(AX*1), SI
	MOVL     (R13), BX
	IMULQ    R10, BX
	LEAQ     (R9)(BX*1), DI

	// Column pairs while two columns remain; at tailK, w is 2K or 2K+1.
	CMPQ DX, $2
	JLT  tail0
	PAIR(0, X0)
	CMPQ DX, $4
	JLT  tail1
	PAIR(16, X1)
	CMPQ DX, $6
	JLT  tail2
	PAIR(32, X2)
	CMPQ DX, $8
	JLT  tail3
	PAIR(48, X3)
	CMPQ DX, $10
	JLT  tail4
	PAIR(64, X4)
	CMPQ DX, $12
	JLT  tail5
	PAIR(80, X5)
	CMPQ DX, $14
	JLT  tail6
	PAIR(96, X6)
	CMPQ DX, $16
	JLT  tail7
	PAIR(112, X7)
	JMP  next

tail0:
	TESTQ $1, DX
	JZ    next
	SINGLE(0, X0)
	JMP   next
tail1:
	TESTQ $1, DX
	JZ    next
	SINGLE(16, X1)
	JMP   next
tail2:
	TESTQ $1, DX
	JZ    next
	SINGLE(32, X2)
	JMP   next
tail3:
	TESTQ $1, DX
	JZ    next
	SINGLE(48, X3)
	JMP   next
tail4:
	TESTQ $1, DX
	JZ    next
	SINGLE(64, X4)
	JMP   next
tail5:
	TESTQ $1, DX
	JZ    next
	SINGLE(80, X5)
	JMP   next
tail6:
	TESTQ $1, DX
	JZ    next
	SINGLE(96, X6)
	JMP   next
tail7:
	TESTQ $1, DX
	JZ    next
	SINGLE(112, X7)

next:
	ADDQ $8, R11
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ CX
	JNZ  entry

	// out[c] += acc[c], by the same ladder.
	MOVQ out+0(FP), AX
	CMPQ DX, $2
	JLT  flush0
	FLUSH(0, X0)
	CMPQ DX, $4
	JLT  flush1
	FLUSH(16, X1)
	CMPQ DX, $6
	JLT  flush2
	FLUSH(32, X2)
	CMPQ DX, $8
	JLT  flush3
	FLUSH(48, X3)
	CMPQ DX, $10
	JLT  flush4
	FLUSH(64, X4)
	CMPQ DX, $12
	JLT  flush5
	FLUSH(80, X5)
	CMPQ DX, $14
	JLT  flush6
	FLUSH(96, X6)
	CMPQ DX, $16
	JLT  flush7
	FLUSH(112, X7)
	RET

flush0:
	TESTQ $1, DX
	JZ    done
	FLUSH1(0, X0)
	RET
flush1:
	TESTQ $1, DX
	JZ    done
	FLUSH1(16, X1)
	RET
flush2:
	TESTQ $1, DX
	JZ    done
	FLUSH1(32, X2)
	RET
flush3:
	TESTQ $1, DX
	JZ    done
	FLUSH1(48, X3)
	RET
flush4:
	TESTQ $1, DX
	JZ    done
	FLUSH1(64, X4)
	RET
flush5:
	TESTQ $1, DX
	JZ    done
	FLUSH1(80, X5)
	RET
flush6:
	TESTQ $1, DX
	JZ    done
	FLUSH1(96, X6)
	RET
flush7:
	TESTQ $1, DX
	JZ    done
	FLUSH1(112, X7)

done:
	RET
