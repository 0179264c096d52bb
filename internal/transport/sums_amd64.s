#include "textflag.h"

// appendZ and sumsInto (wire.go) for 4-byte sums, four float64 lanes per YMM
// instruction. Every element gets the Go loop's operations in its order, each
// product rounded (VMULPD), no fused multiply-add, so both paths give the
// same bits and bytes. For an integer n with |n| < 2⁵¹ and M = 1.5·2⁵², the
// bit pattern of the float M + n is M's plus n: the kernels convert between
// integers and floats with M, as the Go loops round with it.

DATA magic<>+0(SB)/8, $0x4338000000000000 // 1.5·2⁵²
GLOBL magic<>(SB), RODATA|NOPTR, $8
DATA low<>+0(SB)/8, $0xc1e0000000000000 // −2³¹
GLOBL low<>(SB), RODATA|NOPTR, $8
DATA high<>+0(SB)/8, $0x41e0000000000000 // 2³¹
GLOBL high<>(SB), RODATA|NOPTR, $8
DATA lowDwords<>+0(SB)/4, $0
DATA lowDwords<>+4(SB)/4, $2
DATA lowDwords<>+8(SB)/4, $4
DATA lowDwords<>+12(SB)/4, $6
DATA lowDwords<>+16(SB)/8, $0
DATA lowDwords<>+24(SB)/8, $0
GLOBL lowDwords<>(SB), RODATA|NOPTR, $32

// func appendZ4AVX2(out []byte, z, rs []float64, mean, root, scale float64) bool
TEXT ·appendZ4AVX2(SB), NOSPLIT, $0-97
	MOVQ         out_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), CX
	MOVQ         rs_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD root+80(FP), Y1
	VBROADCASTSD scale+88(FP), Y2
	VBROADCASTSD magic<>(SB), Y3
	VBROADCASTSD low<>(SB), Y4
	VBROADCASTSD high<>(SB), Y5
	VMOVDQU      lowDwords<>(SB), Y6
	XORQ         AX, AX

loop:
	CMPQ      AX, CX
	JAE       fit
	VMOVUPD   (SI)(AX*8), Y7       // ẑ_k
	VMULPD    (DX)(AX*8), Y0, Y8   // p = μ·R′_k
	VMULPD    Y7, Y1, Y9           // ẑ_k·√l
	VADDPD    Y8, Y9, Y9
	VADDPD    Y3, Y9, Y9           // M + Z′_k
	VSUBPD    Y3, Y9, Y10          // Z′_k
	VSUBPD    Y8, Y10, Y11
	VMULPD    Y2, Y11, Y11         // vh.Centred(Z′_k, R′_k, μ)
	VPCMPEQQ  Y7, Y11, Y11         // the bits of ẑ_k
	VCMPPD    $0x1d, Y4, Y10, Y12  // Z′_k ≥ −2³¹
	VCMPPD    $0x11, Y5, Y10, Y13  // Z′_k < 2³¹
	VANDPD    Y12, Y11, Y11
	VANDPD    Y13, Y11, Y11
	VMOVMSKPD Y11, BX
	CMPQ      BX, $15
	JNE       misfit
	VPERMD    Y9, Y6, Y14          // the low 4 bytes of each: Z′_k
	VMOVDQU   X14, (DI)(AX*4)
	ADDQ      $4, AX
	JMP       loop

fit:
	MOVB $1, ret+96(FP)
	VZEROUPPER
	RET

misfit:
	MOVB $0, ret+96(FP)
	VZEROUPPER
	RET

// func sumsInto4AVX2(z []float64, b []byte, rs []float64, mean, scale float64)
TEXT ·sumsInto4AVX2(SB), NOSPLIT, $0-88
	MOVQ         z_base+0(FP), DI
	MOVQ         z_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	MOVQ         rs_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD scale+80(FP), Y1
	VBROADCASTSD magic<>(SB), Y3
	XORQ         AX, AX

next:
	CMPQ      AX, CX
	JAE       done
	VPMOVSXDQ (SI)(AX*4), Y4       // Z′_k
	VPADDQ    Y3, Y4, Y4
	VSUBPD    Y3, Y4, Y4           // as a float
	VMULPD    (DX)(AX*8), Y0, Y5   // μ·R′_k
	VSUBPD    Y5, Y4, Y4
	VMULPD    Y1, Y4, Y4
	VMOVUPD   Y4, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       next

done:
	VZEROUPPER
	RET
