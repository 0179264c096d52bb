#include "textflag.h"

// The row updates of rowops.go, four float64 lanes per YMM instruction and
// the last len(o) mod 4 elements one at a time. Every element gets the Go
// loop's operations in its order: each product rounded (VMULPD/VMULSD), then
// the adds (VADDPD/VSUBPD and their scalar forms). A fused multiply-add would
// round once instead of twice and change the bits.

// func addMulAVX2(o, x []float64, a float64)
TEXT ·addMulAVX2(SB), NOSPLIT, $0-56
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JB      loop

tail:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func addMul2AVX2(o, x, y []float64, a, b float64)
TEXT ·addMul2AVX2(SB), NOSPLIT, $0-88
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD a+72(FP), Y0
	VBROADCASTSD b+80(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

loop:
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (DX)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VADDPD  (DI)(AX*8), Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JB      loop

tail:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (DX)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VADDSD (DI)(AX*8), X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func subMul2AVX2(o, x, y []float64, a, b float64)
TEXT ·subMul2AVX2(SB), NOSPLIT, $0-88
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD a+72(FP), Y0
	VBROADCASTSD b+80(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

loop:
	VMULPD  (SI)(AX*8), Y0, Y2
	VMULPD  (DX)(AX*8), Y1, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JB      loop

tail:
	CMPQ   AX, CX
	JAE    done
	VMULSD (SI)(AX*8), X0, X2
	VMULSD (DX)(AX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func slideSumsAVX2(z, r, x, y []float64, a, b float64)
TEXT ·slideSumsAVX2(SB), NOSPLIT, $0-112
	MOVQ         z_base+0(FP), DI
	MOVQ         z_len+8(FP), CX
	MOVQ         r_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	MOVQ         y_base+72(FP), DX
	VBROADCASTSD a+96(FP), Y0
	VBROADCASTSD b+104(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           tail

loop:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMULPD  Y3, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y6
	VSUBPD  Y2, Y6, Y6
	VADDPD  Y3, Y6, Y6
	VMOVUPD Y6, (R8)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JB      loop

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DX)(AX*8), X3
	VMULSD X2, X0, X4
	VADDSD (DI)(AX*8), X4, X4
	VMULSD X3, X1, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	VMOVSD (R8)(AX*8), X6
	VSUBSD X2, X6, X6
	VADDSD X3, X6, X6
	VMOVSD X6, (R8)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
