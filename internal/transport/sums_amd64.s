#include "textflag.h"

// residuals, pack and sumsInto (wire.go), four values per instruction.
// Every element gets the Go loop's operations in its order, each product
// rounded (VMULPD), no fused multiply-add, so both paths give the same bits
// and bytes. For an integer n with |n| < 2⁵¹ and M = 1.5·2⁵², the bit
// pattern of the float M + n is M's plus n: the kernels convert between
// integers and floats with M, as the Go loops round with it. Every vector
// instruction is VEX-encoded: one legacy-SSE MOVQ into an X register, with
// the YMM upper halves in use, made the decode kernel six times slower.

DATA magic<>+0(SB)/8, $0x4338000000000000 // 1.5·2⁵²
GLOBL magic<>(SB), RODATA|NOPTR, $8

// lowDwords are the VPERMD indices of four quadwords' low doublewords.
DATA lowDwords<>+0(SB)/4, $0
DATA lowDwords<>+4(SB)/4, $2
DATA lowDwords<>+8(SB)/4, $4
DATA lowDwords<>+12(SB)/4, $6
DATA lowDwords<>+16(SB)/8, $0
DATA lowDwords<>+24(SB)/8, $0
GLOBL lowDwords<>(SB), RODATA|NOPTR, $32

// packMasks[w−1] moves the low w bytes of four doublewords to the first 4w
// bytes (VPSHUFB), for w = 1 to 3.
DATA packMasks<>+0(SB)/8, $0x808080800c080400
DATA packMasks<>+8(SB)/8, $0x8080808080808080
DATA packMasks<>+16(SB)/8, $0x0d0c090805040100
DATA packMasks<>+24(SB)/8, $0x8080808080808080
DATA packMasks<>+32(SB)/8, $0x0908060504020100
DATA packMasks<>+40(SB)/8, $0x808080800e0d0c0a
GLOBL packMasks<>(SB), RODATA|NOPTR, $48

// unpackMasks[w−1] moves four w-byte integers to the top bytes of four
// doublewords (VPSHUFB), for w = 1 to 4.
DATA unpackMasks<>+0(SB)/8, $0x0180808000808080
DATA unpackMasks<>+8(SB)/8, $0x0380808002808080
DATA unpackMasks<>+16(SB)/8, $0x0302808001008080
DATA unpackMasks<>+24(SB)/8, $0x0706808005048080
DATA unpackMasks<>+32(SB)/8, $0x0504038002010080
DATA unpackMasks<>+40(SB)/8, $0x0b0a098008070680
DATA unpackMasks<>+48(SB)/8, $0x0706050403020100
DATA unpackMasks<>+56(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL unpackMasks<>(SB), RODATA|NOPTR, $64

// func residualsAVX2(out []byte, zs, rs []float64, mean float64) (acc uint64)
//
// Each D_k goes to out as its low 4 bytes.
TEXT ·residualsAVX2(SB), NOSPLIT, $0-88
	MOVQ         out_base+0(FP), DI
	MOVQ         zs_base+24(FP), SI
	MOVQ         zs_len+32(FP), CX
	MOVQ         rs_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD magic<>(SB), Y3
	VMOVDQU      lowDwords<>(SB), Y4
	VPXOR        Y15, Y15, Y15        // the OR of D_k ^ D_k<<1
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	VMULPD  (DX)(AX*8), Y0, Y8   // p = μ·R′_k
	VMOVUPD (SI)(AX*8), Y9
	VADDPD  Y3, Y9, Y9           // M + Z′_k
	VADDPD  Y3, Y8, Y8           // M + round(p)
	VPSUBQ  Y8, Y9, Y8           // D_k
	VPERMD  Y8, Y4, Y12
	VMOVDQU X12, (DI)(AX*4)
	VPADDQ  Y8, Y8, Y11          // D_k<<1
	VPXOR   Y11, Y8, Y8
	VPOR    Y8, Y15, Y15
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      loop

done:
	VEXTRACTI128 $1, Y15, X14
	VPOR         X14, X15, X15
	VPSHUFD      $0x4e, X15, X14
	VPOR         X14, X15, X15
	VMOVQ        X15, acc+80(FP)
	VZEROUPPER
	RET

// func packAVX2(b []byte, n, w int)
//
// Each group of four doublewords is read before its 16-byte store, which
// ends at or before the next group for w ≤ 3.
TEXT ·packAVX2(SB), NOSPLIT, $0-40
	MOVQ    b_base+0(FP), SI
	MOVQ    n+24(FP), CX
	MOVQ    w+32(FP), BX
	LEAQ    packMasks<>(SB), R8
	MOVQ    BX, R9
	SHLQ    $4, R9
	VMOVDQU -16(R8)(R9*1), X2
	MOVQ    SI, DI
	SHLQ    $2, BX                // 4w
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      packed

group:
	VMOVDQU (SI)(AX*4), X4
	VPSHUFB X2, X4, X4
	VMOVDQU X4, (DI)
	ADDQ    BX, DI
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      group

packed:
	VZEROUPPER
	RET

// REBUILD rebuilds the four elements at AX from the integers D_k in Y4:
// added to the bits of M + round(p), p = μ·R′_k, they are those of M + Z′_k;
// then vh.Centred(Z′_k, R′_k, μ) with p reused.
#define REBUILD \
	VMULPD  (DX)(AX*8), Y0, Y6; \
	VADDPD  Y3, Y6, Y7; \
	VPADDQ  Y7, Y4, Y4; \
	VSUBPD  Y3, Y4, Y4; \
	VSUBPD  Y6, Y4, Y4; \
	VMULPD  Y1, Y4, Y4; \
	VMOVUPD Y4, (DI)(AX*8); \
	ADDQ    R11, SI; \
	ADDQ    $4, AX; \
	CMPQ    AX, CX

// SIGNEXTEND widens the four integers of w bytes in X4 to the quadwords of Y4.
#define SIGNEXTEND \
	VPSHUFB   X2, X4, X4; \
	VPSRAD    X5, X4, X4; \
	VPMOVSXDQ X4, Y4

// func sumsIntoAVX2(z []float64, b []byte, rs []float64, mean, scale float64, w int)
//
// A group of four w-byte integers is loaded as 8 bytes for w ≤ 2, as 16 for
// w = 3 and sign-extended from memory for w = 4: at most 4 bytes past the
// column.
TEXT ·sumsIntoAVX2(SB), NOSPLIT, $0-96
	MOVQ         z_base+0(FP), DI
	MOVQ         z_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	MOVQ         rs_base+48(FP), DX
	VBROADCASTSD mean+72(FP), Y0
	VBROADCASTSD scale+80(FP), Y1
	VBROADCASTSD magic<>(SB), Y3
	MOVQ         w+88(FP), BX
	LEAQ         unpackMasks<>(SB), R8
	MOVQ         BX, R9
	SHLQ         $4, R9
	VMOVDQU      -16(R8)(R9*1), X2
	MOVQ         $32, R10
	LEAQ         0(BX*8), R9
	SUBQ         R9, R10
	VMOVQ        R10, X5             // 32 − 8w
	MOVQ         BX, R11
	SHLQ         $2, R11             // 4w
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done
	CMPQ         BX, $3
	JA           four
	JE           three

narrow:
	VMOVQ (SI), X4
	SIGNEXTEND
	REBUILD
	JB    narrow
	JMP   done

three:
	VMOVDQU (SI), X4
	SIGNEXTEND
	REBUILD
	JB      three
	JMP     done

four:
	VPMOVSXDQ (SI), Y4
	REBUILD
	JB        four

done:
	VZEROUPPER
	RET
