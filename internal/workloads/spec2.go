package workloads

import (
	"fmt"
	"math"
	"strings"

	"diag/internal/iss"
	"diag/internal/mem"
)

// ---------------------------------------------------------------------
// xz — LZ match-length scanning (the match finder that dominates xz):
// for each candidate pair of positions, count equal bytes up to a cap
// with a data-dependent exit. Byte loads, branchy. Scale: 512*Scale
// candidate pairs over a 16 KB buffer.
// ---------------------------------------------------------------------

const (
	xzBufLen   = 16 << 10
	xzMaxMatch = 64
)

func xzPairs(p Params) int { return 512 * p.Scale }

func xzData(p Params) (buf []byte, pairs []uint32) {
	// Low-entropy buffer so matches have interesting lengths.
	w := randWords(171, xzBufLen, 4)
	buf = make([]byte, xzBufLen)
	for i := range buf {
		buf[i] = byte('a' + w[i])
	}
	n := xzPairs(p)
	pa := randWords(172, n, uint32(xzBufLen-xzMaxMatch))
	pb := randWords(173, n, uint32(xzBufLen-xzMaxMatch))
	pairs = make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		pairs[2*i] = pa[i]
		pairs[2*i+1] = pb[i]
	}
	return
}

func buildXZ(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := xzPairs(p)
	buf, pairs := xzData(p)

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x       # buffer
	li   s1, 0x%x       # pairs
	li   s2, 0x%x       # out lengths
	li   s3, %d         # max match
	li   t5, %d
%smloop:
	slli a0, t0, 3
	add  a1, a0, s1
	lw   a2, 0(a1)      # pos a
	lw   a3, 4(a1)      # pos b
	add  a2, a2, s0
	add  a3, a3, s0
	li   a4, 0          # len
cmps:
	bge  a4, s3, cdone
	add  a5, a2, a4
	lbu  a6, 0(a5)
	add  a5, a3, a4
	lbu  a7, 0(a5)
	bne  a6, a7, cdone
	addi a4, a4, 1
	j    cmps
cdone:
	slli a5, t0, 2
	add  a5, a5, s2
	sw   a4, 0(a5)
	addi t0, t0, 1
	blt  t0, t2, mloop
	ebreak
`, inBase, in2Base, outBase, xzMaxMatch, n,
		partition("t5", "t1", "t0", "t2", "xz"))

	return assemble("xz", src,
		mem.Segment{Addr: inBase, Data: buf},
		mem.Segment{Addr: in2Base, Data: wordsToBytes(pairs)})
}

func checkXZ(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := xzPairs(p)
	buf, pairs := xzData(p)
	want := make([]uint32, n)
	for i := 0; i < n; i++ {
		a, b := pairs[2*i], pairs[2*i+1]
		l := uint32(0)
		for l < xzMaxMatch && buf[a+l] == buf[b+l] {
			l++
		}
		want[i] = l
	}
	return checkWords(m, outBase, want, "xz.len")
}

// ---------------------------------------------------------------------
// lbm — lattice-Boltzmann site update (lbm's streaming relaxation): per
// site, read 5 distribution values (D2Q5), compute density and a BGK
// relaxation toward equilibrium, write 5 values back. FP streaming over
// wide working sets (SIMT-capable). Scale: 512*Scale sites.
// ---------------------------------------------------------------------

const lbmQ = 5

func lbmSites(p Params) int { return 512 * p.Scale }

func buildLBM(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := lbmSites(p)
	f := randFloats(181, n*lbmQ, 0.1, 1)

	// Per site: rho = Σ f_q; feq = rho/5; f'_q = f_q + omega*(feq - f_q).
	var body string
	body += "\tslli a0, t0, 2\n\tli a1, 5\n\tmul a0, a0, a1\n\tadd a0, a0, s0\n"
	body += "\tfcvt.s.w fa0, zero\n"
	for q := 0; q < lbmQ; q++ {
		body += fmt.Sprintf("\tflw ft%d, %d(a0)\n", q, 4*q)
		body += fmt.Sprintf("\tfadd.s fa0, fa0, ft%d\n", q)
	}
	body += "\tfmul.s fa1, fa0, fs0\n" // feq = rho * 0.2
	for q := 0; q < lbmQ; q++ {
		body += fmt.Sprintf("\tfsub.s fa2, fa1, ft%d\n", q)
		body += fmt.Sprintf("\tfmadd.s fa3, fa2, fs1, ft%d\n", q)
		body += fmt.Sprintf("\tfsw fa3, %d(a2)\n", 4*q)
	}
	// Insert the out-site pointer computation before the store sequence.
	body = strings.Replace(body, "\tfmul.s fa1, fa0, fs0\n",
		"\tfmul.s fa1, fa0, fs0\n\tslli a2, t0, 2\n\tli a3, 5\n\tmul a2, a2, a3\n\tadd a2, a2, s2\n", 1)

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s2, 0x%x
	lui  a0, %%hi(lbm_consts)
	addi a0, a0, %%lo(lbm_consts)
	flw  fs0, 0(a0)      # 0.2
	flw  fs1, 4(a0)      # omega = 0.6
	li   t5, %d
%s	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
lbm_consts:
	.float 0.2, 0.6
`, inBase, outBase, n,
		partition("t5", "t6", "t0", "t2", "lbm"),
		loopWrap(p.SIMT, "lbm", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("lbm", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(f)})
}

func checkLBM(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := lbmSites(p)
	f := randFloats(181, n*lbmQ, 0.1, 1)
	want := make([]float32, n*lbmQ)
	for i := 0; i < n; i++ {
		var rho float32
		for q := 0; q < lbmQ; q++ {
			rho += f[i*lbmQ+q]
		}
		feq := rho * 0.2
		for q := 0; q < lbmQ; q++ {
			want[i*lbmQ+q] = iss.FMA32(feq-f[i*lbmQ+q], 0.6, f[i*lbmQ+q])
		}
	}
	return checkFloats(m, outBase, want, "lbm.f")
}

// ---------------------------------------------------------------------
// imagick — 3×3 convolution (the resize/blur kernels that dominate
// imagick): per interior pixel, a fully unrolled 9-tap FP MAC.
// SIMT-capable. Scale: 16*Scale rows × 64 columns.
// ---------------------------------------------------------------------

func imRows(p Params) int { return 16 * p.Scale }

var imKernel = [9]float32{0.0625, 0.125, 0.0625, 0.125, 0.25, 0.125, 0.0625, 0.125, 0.0625}

func buildImagick(p Params) (*mem.Image, error) {
	p = p.normalize()
	r := imRows(p)
	img := randFloats(191, r*hsCols, 0, 255)

	var body string
	body += `	andi a0, t0, 63
	beqz a0, im_skip
	addi a1, a0, -63
	beqz a1, im_skip
	slli a2, t0, 2
	add  a3, a2, s0
	fcvt.s.w fa0, zero
`
	k := 0
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			body += fmt.Sprintf("\tflw fa1, %d(a3)\n", 4*(dr*hsCols+dc))
			body += fmt.Sprintf("\tflw fa2, %d(s1)\n", 4*k)
			body += "\tfmadd.s fa0, fa1, fa2, fa0\n"
			k++
		}
	}
	body += `	add  a3, a2, s2
	fsw  fa0, 0(a3)
im_skip:
`
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x       # kernel taps
	li   s2, 0x%x
	li   t5, %d
%s	li   a1, 64
	bge  t0, a1, im_lo_ok
	mv   t0, a1
im_lo_ok:
	li   a1, %d
	blt  t2, a1, im_hi_ok
	mv   t2, a1
im_hi_ok:
	li   t1, 1
%s	ebreak
`, inBase, auxBase, outBase, r*hsCols,
		partition("t5", "t6", "t0", "t2", "im"),
		r*hsCols-hsCols,
		loopWrap(p.SIMT, "im", "t0", "t1", "t2", 1, body))

	return assemble("imagick", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(img)},
		mem.Segment{Addr: auxBase, Data: floatsToBytes(imKernel[:])})
}

func checkImagick(m *mem.Memory, p Params) error {
	p = p.normalize()
	r := imRows(p)
	img := randFloats(191, r*hsCols, 0, 255)
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
			var acc float32
			k := 0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					acc = iss.FMA32(img[i+dr*hsCols+dc], imKernel[k], acc)
					k++
				}
			}
			want[i] = acc
		}
	}
	return checkFloats(m, outBase, want, "imagick.out")
}

// ---------------------------------------------------------------------
// nab — pairwise force magnitude (the nonbonded interaction loop of
// nab): per particle, distance to a fixed probe, then an inverse-
// square-root force term. FP with sqrt and divides (SIMT-capable).
// Scale: 512*Scale particles.
// ---------------------------------------------------------------------

func nabParticles(p Params) int { return 512 * p.Scale }

func buildNAB(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := nabParticles(p)
	pos := randFloats(201, n*3, -5, 5)

	body := `	slli a0, t0, 2
	li   a1, 3
	mul  a0, a0, a1
	add  a0, a0, s0
	flw  fa0, 0(a0)       # x
	flw  fa1, 4(a0)       # y
	flw  fa2, 8(a0)       # z
	fsub.s fa0, fa0, fs0  # dx
	fsub.s fa1, fa1, fs1  # dy
	fsub.s fa2, fa2, fs2  # dz
	fmul.s fa3, fa0, fa0
	fmadd.s fa3, fa1, fa1, fa3
	fmadd.s fa3, fa2, fa2, fa3   # r2
	fadd.s fa3, fa3, fs3         # softening
	fsqrt.s fa4, fa3             # r
	fmul.s fa5, fa3, fa4         # r^3
	fdiv.s fa6, fs4, fa5         # G / r^3
	slli a2, t0, 2
	add  a2, a2, s2
	fsw  fa6, 0(a2)
`
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s2, 0x%x
	lui  a0, %%hi(nab_consts)
	addi a0, a0, %%lo(nab_consts)
	flw  fs0, 0(a0)
	flw  fs1, 4(a0)
	flw  fs2, 8(a0)
	flw  fs3, 12(a0)
	flw  fs4, 16(a0)
	li   t5, %d
%s	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
nab_consts:
	.float 0.5, -0.25, 1.5, 0.01, 6.674
`, inBase, outBase, n,
		partition("t5", "t6", "t0", "t2", "nab"),
		loopWrap(p.SIMT, "nab", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("nab", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(pos)})
}

func checkNAB(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := nabParticles(p)
	pos := randFloats(201, n*3, -5, 5)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		dx := pos[i*3] - 0.5
		dy := pos[i*3+1] - -0.25
		dz := pos[i*3+2] - 1.5
		r2 := dx * dx
		r2 = iss.FMA32(dy, dy, r2)
		r2 = iss.FMA32(dz, dz, r2)
		r2 += 0.01
		r := float32(math.Sqrt(float64(r2)))
		want[i] = 6.674 / (r2 * r)
	}
	return checkFloats(m, outBase, want, "nab.force")
}

// ---------------------------------------------------------------------
// povray — ray-sphere intersection (the primitive test at the heart of
// povray's tracer): per ray, the quadratic discriminant against a fixed
// sphere; hits store the near intersection distance, misses store -1.
// FP dot products with a forward branch (SIMT-capable).
// Scale: 512*Scale rays.
// ---------------------------------------------------------------------

func povRays(p Params) int { return 512 * p.Scale }

// povDirs returns unnormalized ray directions; origin is fixed at 0.
func povDirs(p Params) []float32 {
	return randFloats(211, povRays(p)*3, -1, 1)
}

func buildPovray(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := povRays(p)
	dirs := povDirs(p)

	// Sphere center (cx,cy,cz) = consts[0..2], radius² = consts[3].
	// a = d·d; b = d·c; disc = b² - a*(c·c - r²); hit: t = (b - sqrt(disc))/a.
	body := `	slli a0, t0, 2
	li   a1, 3
	mul  a0, a0, a1
	add  a0, a0, s0
	flw  fa0, 0(a0)
	flw  fa1, 4(a0)
	flw  fa2, 8(a0)
	fmul.s fa3, fa0, fa0
	fmadd.s fa3, fa1, fa1, fa3
	fmadd.s fa3, fa2, fa2, fa3   # a = d.d
	fmul.s fa4, fa0, fs0
	fmadd.s fa4, fa1, fs1, fa4
	fmadd.s fa4, fa2, fs2, fa4   # b = d.c
	fmul.s fa5, fa3, fs3         # a * (|c|^2 - r^2)
	fmul.s fa6, fa4, fa4
	fsub.s fa6, fa6, fa5         # disc
	slli a2, t0, 2
	add  a2, a2, s2
	fcvt.s.w fa7, zero
	flt.s a3, fa6, fa7           # disc < 0 ?
	beqz a3, pov_h
	flw  fa7, 16(s1)             # miss marker -1.0
	fsw  fa7, 0(a2)
	j    pov_d
pov_h:
	fsqrt.s fa6, fa6
	fsub.s fa7, fa4, fa6
	fdiv.s fa7, fa7, fa3         # t = (b - sqrt(disc)) / a
	fsw  fa7, 0(a2)
pov_d:
`
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s2, 0x%x
	lui  a0, %%hi(pov_consts)
	addi a0, a0, %%lo(pov_consts)
	mv   s1, a0
	flw  fs0, 0(a0)      # cx
	flw  fs1, 4(a0)      # cy
	flw  fs2, 8(a0)      # cz
	flw  fs3, 12(a0)     # |c|^2 - r^2
	li   t5, %d
%s	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
pov_consts:
	.float 1.0, 2.0, 4.0, 17.0, -1.0
`, inBase, outBase, n,
		partition("t5", "t6", "t0", "t2", "pov"),
		loopWrap(p.SIMT, "pov", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("povray", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(dirs)})
}

func checkPovray(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := povRays(p)
	dirs := povDirs(p)
	const cx, cy, cz, k = 1.0, 2.0, 4.0, 17.0
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		dx, dy, dz := dirs[i*3], dirs[i*3+1], dirs[i*3+2]
		a := dx * dx
		a = iss.FMA32(dy, dy, a)
		a = iss.FMA32(dz, dz, a)
		b := dx * float32(cx)
		b = iss.FMA32(dy, cy, b)
		b = iss.FMA32(dz, cz, b)
		disc := b*b - a*float32(k)
		if disc < 0 {
			want[i] = -1
			continue
		}
		want[i] = (b - float32(math.Sqrt(float64(disc)))) / a
	}
	return checkFloats(m, outBase, want, "povray.t")
}

func init() {
	register(Workload{
		Name: "xz", Suite: SPEC, Class: "control", FP: false,
		SIMTCapable: false, Build: buildXZ, Check: checkXZ,
	})
	register(Workload{
		Name: "lbm", Suite: SPEC, Class: "memory", FP: true,
		SIMTCapable: true, Build: buildLBM, Check: checkLBM,
	})
	register(Workload{
		Name: "imagick", Suite: SPEC, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildImagick, Check: checkImagick,
	})
	register(Workload{
		Name: "nab", Suite: SPEC, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildNAB, Check: checkNAB,
	})
	register(Workload{
		Name: "povray", Suite: SPEC, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildPovray, Check: checkPovray,
	})
}
