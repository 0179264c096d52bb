#include "textflag.h"

// Sums (sums.go), four values per instruction: every element gets the Go
// loop's operations in its order, each product rounded (VMULPD), no fused
// multiply-add, so both paths give the same bits. Every vector instruction
// is VEX-encoded.

DATA magic<>+0(SB)/8, $0x4338000000000000 // 1.5·2⁵²
GLOBL magic<>(SB), RODATA|NOPTR, $8

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

DATA bound<>+0(SB)/8, $0x4310000000000000 // 2⁵⁰
GLOBL bound<>(SB), RODATA|NOPTR, $8

// func sumsAVX2(zs, z, rs []float64, mean, root, scale float64) (ok bool)
TEXT ·sumsAVX2(SB), NOSPLIT, $0-97
	MOVQ         zs_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), CX
	MOVQ         rs_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD root+80(FP), Y1
	VBROADCASTSD scale+88(FP), Y2
	VBROADCASTSD magic<>(SB), Y3
	VBROADCASTSD absMask<>(SB), Y4
	VBROADCASTSD bound<>(SB), Y6
	VPCMPEQQ     Y5, Y5, Y5           // all ones while every z_k rebuilds
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD  (SI)(AX*8), Y7       // z_k
	VMULPD   (DX)(AX*8), Y0, Y8   // p = μ·R′_k
	VMULPD   Y7, Y1, Y9           // z_k·√l
	VADDPD   Y8, Y9, Y9
	VADDPD   Y3, Y9, Y9
	VSUBPD   Y3, Y9, Y10          // Z′_k
	VMOVUPD  Y10, (DI)(AX*8)
	VANDPD   Y4, Y10, Y11
	VANDPD   Y4, Y8, Y12
	VADDPD   Y12, Y11, Y11        // |Z′_k| + |p|
	VCMPPD   $1, Y6, Y11, Y11     // below 2⁵⁰ (false for a NaN)
	VPAND    Y11, Y5, Y5
	VSUBPD   Y8, Y10, Y10
	VMULPD   Y2, Y10, Y10         // Centred(Z′_k, R′_k, μ)
	VPCMPEQQ Y7, Y10, Y10         // the bits of z_k
	VPAND    Y10, Y5, Y5
	ADDQ     $4, AX
	CMPQ     AX, CX
	JB       loop

done:
	VMOVMSKPD Y5, BX
	CMPQ      BX, $15
	SETEQ     ok+96(FP)
	VZEROUPPER
	RET
