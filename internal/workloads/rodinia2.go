package workloads

import (
	"fmt"

	"diag/internal/iss"
	"diag/internal/mem"
)

// ---------------------------------------------------------------------
// kmeans — nearest-centroid assignment (Rodinia's kmeans inner phase):
// for each 4-dimensional point, compute the squared distance to K=4
// centroids (fully unrolled) and store the index of the nearest.
// FP-heavy with reductions; straight-line body (SIMT-capable).
// Scale: 256*Scale points.
// ---------------------------------------------------------------------

const (
	kmDims = 4
	kmK    = 4
)

func kmPoints(p Params) int { return 256 * p.Scale }

func buildKMeans(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := kmPoints(p)
	pts := randFloats(61, n*kmDims, -10, 10)
	cent := randFloats(62, kmK*kmDims, -10, 10)

	var body string
	body += "\tslli a0, t0, 4\n\tadd a0, a0, s0\n" // &pts[i*4] (16 bytes)
	for d := 0; d < kmDims; d++ {
		body += fmt.Sprintf("\tflw ft%d, %d(a0)\n", d, 4*d)
	}
	body += "\tli a1, 0\n" // best index
	for k := 0; k < kmK; k++ {
		body += "\tfcvt.s.w fa6, zero\n"
		for d := 0; d < kmDims; d++ {
			body += fmt.Sprintf("\tflw fa7, %d(s1)\n", 4*(k*kmDims+d))
			body += fmt.Sprintf("\tfsub.s fa7, ft%d, fa7\n", d)
			body += "\tfmadd.s fa6, fa7, fa7, fa6\n"
		}
		if k == 0 {
			body += "\tfmv.s fa5, fa6\n" // best distance
		} else {
			body += "\tflt.s a2, fa6, fa5\n"
			body += fmt.Sprintf("\tbeqz a2, km_keep%d\n", k)
			body += "\tfmv.s fa5, fa6\n"
			body += fmt.Sprintf("\tli a1, %d\n", k)
			body += fmt.Sprintf("km_keep%d:\n", k)
		}
	}
	body += "\tslli a3, t0, 2\n\tadd a3, a3, s2\n\tsw a1, 0(a3)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	li   s2, 0x%x
	li   t5, %d
%s	li   t1, 1
%s	ebreak
`, inBase, in2Base, outBase, n,
		partition("t5", "t6", "t0", "t2", "km"),
		loopWrap(p.SIMT, "km", "t0", "t1", "t2", 1, body))

	return assemble("kmeans", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(pts)},
		mem.Segment{Addr: in2Base, Data: floatsToBytes(cent)})
}

func checkKMeans(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := kmPoints(p)
	pts := randFloats(61, n*kmDims, -10, 10)
	cent := randFloats(62, kmK*kmDims, -10, 10)
	want := make([]uint32, n)
	for i := 0; i < n; i++ {
		var best float32
		bestK := 0
		for k := 0; k < kmK; k++ {
			var d2 float32
			for d := 0; d < kmDims; d++ {
				diff := pts[i*kmDims+d] - cent[k*kmDims+d]
				d2 = iss.FMA32(diff, diff, d2)
			}
			if k == 0 || d2 < best {
				best = d2
				if k != 0 {
					bestK = k
				}
			}
		}
		want[i] = uint32(bestK)
	}
	return checkWords(m, outBase, want, "kmeans.assign")
}

// ---------------------------------------------------------------------
// lud — dense LU decomposition in place (Rodinia's lud): classic
// Doolittle triple loop with loop-carried FP dependences and divides.
// Inherently serial (wavefront); always runs on one thread.
// Scale: M = 16*Scale (matrix M×M).
// ---------------------------------------------------------------------

func ludM(p Params) int { return 16 * p.Scale }

func buildLUD(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := ludM(p)
	// Diagonally dominant matrix so no pivoting is needed.
	a := randFloats(71, n*n, 0.1, 1)
	for i := 0; i < n; i++ {
		a[i*n+i] += float32(n)
	}

	src := fmt.Sprintf(`_start:
	bnez tp, lud_exit   # inherently serial: only thread 0 works
	li   s0, 0x%x       # A (in place)
	li   s1, %d         # n
	li   s2, %d         # row stride bytes
	li   t0, 0          # k
kloop:
	mul  a0, t0, s2
	add  a0, a0, s0     # &A[k][0]
	slli a1, t0, 2
	add  a2, a0, a1
	flw  fa0, 0(a2)     # A[k][k]
	addi t1, t0, 1      # i = k+1
iloop:
	bge  t1, s1, knext
	mul  a3, t1, s2
	add  a3, a3, s0     # &A[i][0]
	add  a4, a3, a1
	flw  fa1, 0(a4)     # A[i][k]
	fdiv.s fa1, fa1, fa0
	fsw  fa1, 0(a4)     # L factor
	addi t2, t0, 1      # j = k+1
jloop:
	bge  t2, s1, inext
	slli a5, t2, 2
	add  a6, a0, a5
	flw  fa2, 0(a6)     # A[k][j]
	add  a7, a3, a5
	flw  fa3, 0(a7)     # A[i][j]
	fnmsub.s fa3, fa1, fa2, fa3   # A[i][j] - L*A[k][j]
	fsw  fa3, 0(a7)
	addi t2, t2, 1
	j    jloop
inext:
	addi t1, t1, 1
	j    iloop
knext:
	addi t0, t0, 1
	blt  t0, s1, kloop
	# copy result to out for checking
	li   a0, 0
	li   a1, %d
	li   a2, 0x%x
cploop:
	slli a3, a0, 2
	add  a4, a3, s0
	lw   a5, 0(a4)
	add  a6, a3, a2
	sw   a5, 0(a6)
	addi a0, a0, 1
	blt  a0, a1, cploop
lud_exit:
	ebreak
`, inBase, n, 4*n, n*n, outBase)

	return assemble("lud", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(a)})
}

func checkLUD(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := ludM(p)
	a := randFloats(71, n*n, 0.1, 1)
	for i := 0; i < n; i++ {
		a[i*n+i] += float32(n)
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / a[k*n+k]
			a[i*n+k] = l
			for j := k + 1; j < n; j++ {
				a[i*n+j] = iss.FMA32(-l, a[k*n+j], a[i*n+j])
			}
		}
	}
	return checkFloats(m, outBase, a, "lud.A")
}

// ---------------------------------------------------------------------
// nw — Needleman-Wunsch sequence alignment (Rodinia's nw): integer DP
// over an (N+1)×(N+1) score table with the classic three-way max.
// Wavefront-dependent, so inherently serial. Scale: N = 32*Scale.
// ---------------------------------------------------------------------

func nwN(p Params) int { return 32 * p.Scale }

const (
	nwGap   = 1
	nwMatch = 3
)

func nwSeqs(p Params) (a, b []byte) {
	n := nwN(p)
	wa := randWords(81, n, 4)
	wb := randWords(82, n, 4)
	a = make([]byte, n)
	b = make([]byte, n)
	for i := 0; i < n; i++ {
		a[i] = byte(wa[i])
		b[i] = byte(wb[i])
	}
	return
}

func buildNW(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := nwN(p)
	a, b := nwSeqs(p)

	// Initialize table borders: score[0][j] = -j, score[i][0] = -i.
	border := make([]uint32, (n+1)*(n+1))
	for j := 0; j <= n; j++ {
		border[j] = uint32(int32(-j * nwGap))
	}
	for i := 0; i <= n; i++ {
		border[i*(n+1)] = uint32(int32(-i * nwGap))
	}

	src := fmt.Sprintf(`_start:
	bnez tp, nw_exit    # inherently serial: only thread 0 works
	li   s0, 0x%x       # seq a
	li   s1, 0x%x       # seq b
	li   s2, 0x%x       # score table
	li   s3, %d         # n
	li   s4, %d         # row stride bytes (n+1)*4
	li   t0, 1          # i
nw_i:
	mul  a0, t0, s4
	add  a0, a0, s2     # &score[i][0]
	sub  a1, a0, s4     # &score[i-1][0]
	addi a2, t0, -1
	add  a3, a2, s0
	lbu  a4, 0(a3)      # a[i-1]
	li   t1, 1          # j
nw_j:
	slli a5, t1, 2
	add  a6, a1, a5
	lw   a7, -4(a6)     # diag = score[i-1][j-1]
	lw   t3, 0(a6)      # up = score[i-1][j]
	add  t4, a0, a5
	lw   t5, -4(t4)     # left = score[i][j-1]
	addi t6, t1, -1
	add  t6, t6, s1
	lbu  t6, 0(t6)      # b[j-1]
	li   t2, -%d
	bne  a4, t6, nw_sub
	li   t2, %d
nw_sub:
	add  a7, a7, t2     # diag + sub
	addi t3, t3, -%d    # up - gap
	addi t5, t5, -%d    # left - gap
	blt  t3, a7, nw_m1
	mv   a7, t3
nw_m1:
	blt  t5, a7, nw_m2
	mv   a7, t5
nw_m2:
	sw   a7, 0(t4)
	addi t1, t1, 1
	ble  t1, s3, nw_j
	addi t0, t0, 1
	ble  t0, s3, nw_i
nw_exit:
	ebreak
`, inBase, in2Base, outBase, n, 4*(n+1), nwMatch, nwMatch, nwGap, nwGap)

	return assemble("nw", src,
		mem.Segment{Addr: inBase, Data: a},
		mem.Segment{Addr: in2Base, Data: b},
		mem.Segment{Addr: outBase, Data: wordsToBytes(border)})
}

func checkNW(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := nwN(p)
	a, b := nwSeqs(p)
	w := n + 1
	score := make([]int32, w*w)
	for j := 0; j <= n; j++ {
		score[j] = int32(-j * nwGap)
	}
	for i := 0; i <= n; i++ {
		score[i*w] = int32(-i * nwGap)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			sub := int32(-nwMatch)
			if a[i-1] == b[j-1] {
				sub = nwMatch
			}
			best := score[(i-1)*w+j-1] + sub
			if up := score[(i-1)*w+j] - nwGap; up > best {
				best = up
			}
			if left := score[i*w+j-1] - nwGap; left > best {
				best = left
			}
			score[i*w+j] = best
		}
	}
	want := make([]uint32, len(score))
	for i, v := range score {
		want[i] = uint32(v)
	}
	return checkWords(m, outBase, want, "nw.score")
}

// ---------------------------------------------------------------------
// pathfinder — row-by-row dynamic programming (Rodinia's pathfinder):
// dst[c] = grid[r][c] + min(src[c-1], src[c], src[c+1]) with double
// buffering. The parallel form gives each thread an independent column
// block (boundaries clamped inside the block). The per-cell body is
// straight-line (SIMT-capable). Scale: 32*Scale rows × 64 columns per
// thread-block.
// ---------------------------------------------------------------------

const pfCols = 64

func pfRows(p Params) int { return 32 * p.Scale }

func pfGrid(p Params) []uint32 {
	p = p.normalize()
	return randWords(91, pfRows(p)*pfCols*p.Threads, 10)
}

func buildPathfinder(p Params) (*mem.Image, error) {
	p = p.normalize()
	rows := pfRows(p)
	grid := pfGrid(p)
	blockBytes := pfCols * 4

	// Each thread owns one independent block of pfCols columns:
	// grid block at inBase + tid*rows*blockBytes, buffers at
	// auxBase + tid*2*blockBytes, final row copied to outBase +
	// tid*blockBytes.
	body := `	slli a0, t0, 2
	add  a1, a0, s4      # &src[c]
	lw   a2, 0(a1)       # mid
	beqz t0, pf_noleft
	lw   a3, -4(a1)
	bge  a3, a2, pf_noleft
	mv   a2, a3
pf_noleft:
	li   a4, 63
	beq  t0, a4, pf_noright
	lw   a3, 4(a1)
	bge  a3, a2, pf_noright
	mv   a2, a3
pf_noright:
	add  a5, a0, s6      # &row[c]
	lw   a6, 0(a5)
	add  a6, a6, a2
	add  a7, a0, s5
	sw   a6, 0(a7)       # dst[c]
`
	src := fmt.Sprintf(`_start:
	li   a0, %d          # rows*64*4: grid block size
	mul  a1, a0, tp
	li   s0, 0x%x
	add  s0, s0, a1      # this thread's grid block
	li   a2, %d          # 2 buffers
	mul  a3, a2, tp
	li   s4, 0x%x
	add  s4, s4, a3      # src buffer
	addi s5, s4, %d      # dst buffer
	li   s7, 0           # r
	li   s8, %d          # rows
	# src starts as zeros (aux region is zero-filled)
rowloop:
	li   a4, %d          # row stride
	mul  a5, a4, s7
	add  s6, s0, a5      # &grid[r][0]
	li   t0, 0
	li   t1, 1
	li   t2, 64
%s	# swap buffers
	mv   a6, s4
	mv   s4, s5
	mv   s5, a6
	addi s7, s7, 1
	blt  s7, s8, rowloop
	# copy final row (in src after swap) to out block
	li   a0, %d
	mul  a1, a0, tp
	li   a2, 0x%x
	add  a2, a2, a1
	li   t0, 0
cpl:
	slli a3, t0, 2
	add  a4, a3, s4
	lw   a5, 0(a4)
	add  a6, a3, a2
	sw   a5, 0(a6)
	addi t0, t0, 1
	li   a7, 64
	blt  t0, a7, cpl
	ebreak
`, rows*blockBytes, inBase,
		2*blockBytes, auxBase, blockBytes,
		rows, blockBytes,
		loopWrap(p.SIMT, "pf", "t0", "t1", "t2", 1, body),
		blockBytes, outBase)

	return assemble("pathfinder", src,
		mem.Segment{Addr: inBase, Data: wordsToBytes(grid)})
}

func checkPathfinder(m *mem.Memory, p Params) error {
	p = p.normalize()
	rows := pfRows(p)
	grid := pfGrid(p)
	for t := 0; t < p.Threads; t++ {
		block := grid[t*rows*pfCols : (t+1)*rows*pfCols]
		src := make([]int32, pfCols)
		dst := make([]int32, pfCols)
		for r := 0; r < rows; r++ {
			for c := 0; c < pfCols; c++ {
				best := src[c]
				if c > 0 && src[c-1] < best {
					best = src[c-1]
				}
				if c < pfCols-1 && src[c+1] < best {
					best = src[c+1]
				}
				dst[c] = int32(block[r*pfCols+c]) + best
			}
			src, dst = dst, src
		}
		want := make([]uint32, pfCols)
		for i, v := range src {
			want[i] = uint32(v)
		}
		if err := checkWords(m, uint32(outBase+t*pfCols*4), want, fmt.Sprintf("pathfinder.t%d", t)); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// srad — speckle-reducing anisotropic diffusion (Rodinia's srad): per
// cell, a diffusion coefficient 1/(1+g) from the 4-neighbor gradient,
// then an update with that coefficient. FP with divides; straight-line
// body with boundary skips (SIMT-capable). Scale: 16*Scale rows × 64.
// ---------------------------------------------------------------------

func srRows(p Params) int { return 16 * p.Scale }

func buildSRAD(p Params) (*mem.Image, error) {
	p = p.normalize()
	r := srRows(p)
	img := randFloats(101, r*hsCols, 1, 10)

	body := `	andi a0, t0, 63
	beqz a0, sr_skip
	addi a1, a0, -63
	beqz a1, sr_skip
	slli a2, t0, 2
	add  a3, a2, s0
	flw  fa0, 0(a3)       # c
	flw  fa1, -4(a3)
	flw  fa2, 4(a3)
	flw  fa3, -256(a3)
	flw  fa4, 256(a3)
	fsub.s fa1, fa1, fa0  # dW
	fsub.s fa2, fa2, fa0  # dE
	fsub.s fa3, fa3, fa0  # dN
	fsub.s fa4, fa4, fa0  # dS
	fmul.s fa5, fa1, fa1
	fmadd.s fa5, fa2, fa2, fa5
	fmadd.s fa5, fa3, fa3, fa5
	fmadd.s fa5, fa4, fa4, fa5  # g2
	fdiv.s fa5, fa5, fs1        # g2 / (c*c) approx via fixed norm
	fadd.s fa6, fs0, fa5        # 1 + g
	fdiv.s fa6, fs0, fa6        # coeff = 1/(1+g)
	fadd.s fa7, fa1, fa2
	fadd.s fa7, fa7, fa3
	fadd.s fa7, fa7, fa4        # laplacian-ish sum
	fmul.s fa7, fa7, fa6
	fmadd.s fa7, fa7, fs2, fa0  # out = c + 0.25 * coeff * sum
	add  a3, a2, s1
	fsw  fa7, 0(a3)
sr_skip:
`
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	lui  a0, %%hi(sr_consts)
	addi a0, a0, %%lo(sr_consts)
	flw  fs0, 0(a0)      # 1.0
	flw  fs1, 4(a0)      # 100.0
	flw  fs2, 8(a0)      # 0.25
	li   t5, %d
%s	li   a1, 64
	bge  t0, a1, sr_lo_ok
	mv   t0, a1
sr_lo_ok:
	li   a1, %d
	blt  t2, a1, sr_hi_ok
	mv   t2, a1
sr_hi_ok:
	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
sr_consts:
	.float 1.0, 100.0, 0.25
`, inBase, outBase, r*hsCols,
		partition("t5", "t6", "t0", "t2", "sr"),
		r*hsCols-hsCols,
		loopWrap(p.SIMT, "sr", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("srad", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(img)})
}

func checkSRAD(m *mem.Memory, p Params) error {
	p = p.normalize()
	r := srRows(p)
	img := randFloats(101, r*hsCols, 1, 10)
	total := r * hsCols
	want := make([]float32, total)
	for t := 0; t < p.Threads; t++ {
		lo, hi := threadRange(total, t, p.Threads)
		if lo < hsCols {
			lo = hsCols
		}
		if hi > total-hsCols {
			hi = total - hsCols
		}
		for i := lo; i < hi; i++ {
			c := i & 63
			if c == 0 || c == 63 {
				continue
			}
			ctr := img[i]
			dW := img[i-1] - ctr
			dE := img[i+1] - ctr
			dN := img[i-hsCols] - ctr
			dS := img[i+hsCols] - ctr
			g2 := dW * dW
			g2 = iss.FMA32(dE, dE, g2)
			g2 = iss.FMA32(dN, dN, g2)
			g2 = iss.FMA32(dS, dS, g2)
			g2 = g2 / 100.0
			coeff := float32(1.0) / (1.0 + g2)
			sum := ((dW + dE) + dN) + dS
			sum = sum * coeff
			want[i] = iss.FMA32(sum, 0.25, ctr)
		}
	}
	return checkFloats(m, outBase, want, "srad.out")
}

func init() {
	register(Workload{
		Name: "kmeans", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildKMeans, Check: checkKMeans,
	})
	register(Workload{
		Name: "lud", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: false, Build: buildLUD, Check: checkLUD,
	})
	register(Workload{
		Name: "nw", Suite: Rodinia, Class: "mixed", FP: false,
		SIMTCapable: false, Build: buildNW, Check: checkNW,
	})
	register(Workload{
		Name: "pathfinder", Suite: Rodinia, Class: "memory", FP: false,
		SIMTCapable: true, Build: buildPathfinder, Check: checkPathfinder,
	})
	register(Workload{
		Name: "srad", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildSRAD, Check: checkSRAD,
	})
}
