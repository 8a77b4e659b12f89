package workloads

import (
	"fmt"

	"diag/internal/iss"
	"diag/internal/mem"
)

// ---------------------------------------------------------------------
// streamcluster — weighted nearest-center cost (the assign phase of
// Rodinia's streamcluster): for each 4-d weighted point, the minimum
// weighted squared distance to K=4 centers, fully unrolled.
// FP compute with reductions (SIMT-capable). Scale: 256*Scale points.
// ---------------------------------------------------------------------

func scPoints(p Params) int { return 256 * p.Scale }

func scData(p Params) (pts, weights, centers []float32) {
	n := scPoints(p)
	return randFloats(221, n*kmDims, -8, 8),
		randFloats(222, n, 0.5, 2),
		randFloats(223, kmK*kmDims, -8, 8)
}

func buildStreamcluster(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := scPoints(p)
	pts, weights, centers := scData(p)

	var body string
	body += "\tslli a0, t0, 4\n\tadd a0, a0, s0\n"
	for d := 0; d < kmDims; d++ {
		body += fmt.Sprintf("\tflw ft%d, %d(a0)\n", d, 4*d)
	}
	body += "\tslli a1, t0, 2\n\tadd a1, a1, s3\n\tflw fa4, 0(a1)\n" // weight
	for k := 0; k < kmK; k++ {
		body += "\tfcvt.s.w fa6, zero\n"
		for d := 0; d < kmDims; d++ {
			body += fmt.Sprintf("\tflw fa7, %d(s1)\n", 4*(k*kmDims+d))
			body += fmt.Sprintf("\tfsub.s fa7, ft%d, fa7\n", d)
			body += "\tfmadd.s fa6, fa7, fa7, fa6\n"
		}
		body += "\tfmul.s fa6, fa6, fa4\n" // weighted cost
		if k == 0 {
			body += "\tfmv.s fa5, fa6\n"
		} else {
			body += "\tfmin.s fa5, fa5, fa6\n"
		}
	}
	body += "\tslli a3, t0, 2\n\tadd a3, a3, s2\n\tfsw fa5, 0(a3)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	li   s2, 0x%x
	li   s3, 0x%x
	li   t5, %d
%s	li   t1, 1
%s	ebreak
`, inBase, in2Base, outBase, auxBase, n,
		partition("t5", "t6", "t0", "t2", "sc"),
		loopWrap(p.SIMT, "sc", "t0", "t1", "t2", 1, body))

	return assemble("streamcluster", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(pts)},
		mem.Segment{Addr: in2Base, Data: floatsToBytes(centers)},
		mem.Segment{Addr: auxBase, Data: floatsToBytes(weights)})
}

func checkStreamcluster(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := scPoints(p)
	pts, weights, centers := scData(p)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		var best float32
		for k := 0; k < kmK; k++ {
			var d2 float32
			for d := 0; d < kmDims; d++ {
				diff := pts[i*kmDims+d] - centers[k*kmDims+d]
				d2 = iss.FMA32(diff, diff, d2)
			}
			cost := d2 * weights[i]
			if k == 0 || cost < best {
				best = cost
			}
		}
		want[i] = best
	}
	return checkFloats(m, outBase, want, "streamcluster.cost")
}

// ---------------------------------------------------------------------
// lavamd — particle interactions within a neighborhood (the per-cell
// force loop of Rodinia's lavaMD): each particle accumulates a
// rational-kernel force contribution from 8 fixed neighbors, fully
// unrolled. FP with divides (SIMT-capable). Scale: 128*Scale particles.
// ---------------------------------------------------------------------

const lmNbrs = 8

func lmParticles(p Params) int { return 128 * p.Scale }

func lmData(p Params) (pos, charge []float32) {
	n := lmParticles(p)
	return randFloats(231, (n+lmNbrs)*3, -3, 3), randFloats(232, n+lmNbrs, 0.1, 1)
}

func buildLavaMD(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := lmParticles(p)
	pos, charge := lmData(p)

	var body string
	body += "\tslli a0, t0, 2\n\tli a1, 3\n\tmul a0, a0, a1\n\tadd a0, a0, s0\n"
	body += "\tflw ft0, 0(a0)\n\tflw ft1, 4(a0)\n\tflw ft2, 8(a0)\n"
	body += "\tfcvt.s.w fa5, zero\n" // force accumulator
	for j := 1; j <= lmNbrs; j++ {
		off := 12 * j // neighbor j is the next particle in the array
		body += fmt.Sprintf("\tflw fa0, %d(a0)\n\tflw fa1, %d(a0)\n\tflw fa2, %d(a0)\n",
			off, off+4, off+8)
		body += "\tfsub.s fa0, fa0, ft0\n\tfsub.s fa1, fa1, ft1\n\tfsub.s fa2, fa2, ft2\n"
		body += "\tfmul.s fa3, fa0, fa0\n\tfmadd.s fa3, fa1, fa1, fa3\n\tfmadd.s fa3, fa2, fa2, fa3\n"
		body += "\tfadd.s fa3, fa3, fs0\n" // + 1.0 softening
		body += fmt.Sprintf("\tslli a2, t0, 2\n\taddi a3, a2, %d\n\tadd a3, a3, s3\n\tflw fa4, 0(a3)\n", 4*j)
		body += "\tfdiv.s fa4, fa4, fa3\n" // q_j / (1 + d2)
		body += "\tfadd.s fa5, fa5, fa4\n"
	}
	body += "\tslli a4, t0, 2\n\tadd a4, a4, s2\n\tfsw fa5, 0(a4)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s2, 0x%x
	li   s3, 0x%x
	lui  a0, %%hi(lm_one)
	addi a0, a0, %%lo(lm_one)
	flw  fs0, 0(a0)
	li   t5, %d
%s	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
lm_one:
	.float 1.0
`, inBase, outBase, in2Base, n,
		partition("t5", "t6", "t0", "t2", "lm"),
		loopWrap(p.SIMT, "lm", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("lavamd", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(pos)},
		mem.Segment{Addr: in2Base, Data: floatsToBytes(charge)})
}

func checkLavaMD(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := lmParticles(p)
	pos, charge := lmData(p)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		var force float32
		for j := 1; j <= lmNbrs; j++ {
			dx := pos[(i+j)*3] - pos[i*3]
			dy := pos[(i+j)*3+1] - pos[i*3+1]
			dz := pos[(i+j)*3+2] - pos[i*3+2]
			d2 := dx * dx
			d2 = iss.FMA32(dy, dy, d2)
			d2 = iss.FMA32(dz, dz, d2)
			d2 += 1.0
			force += charge[i+j] / d2
		}
		want[i] = force
	}
	return checkFloats(m, outBase, want, "lavamd.force")
}

// ---------------------------------------------------------------------
// cfd — unstructured-mesh flux accumulation (the compute_flux kernel of
// Rodinia's cfd): per cell, gather values of 4 irregular neighbors
// through an index array and accumulate weighted fluxes. FP with
// data-dependent gathers (SIMT-capable, memory-irregular).
// Scale: 256*Scale cells.
// ---------------------------------------------------------------------

const cfdNbrs = 4

func cfdCells(p Params) int { return 256 * p.Scale }

func cfdData(p Params) (vals, coeffs []float32, nbrs []uint32) {
	n := cfdCells(p)
	vals = randFloats(241, n, 0, 10)
	coeffs = randFloats(242, cfdNbrs, 0.1, 0.5)
	nbrs = randWords(243, n*cfdNbrs, uint32(n))
	return
}

func buildCFD(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := cfdCells(p)
	vals, coeffs, nbrs := cfdData(p)

	var body string
	body += "\tslli a0, t0, 4\n\tadd a0, a0, s1\n"                   // &nbrs[i*4]
	body += "\tslli a1, t0, 2\n\tadd a1, a1, s0\n\tflw fa0, 0(a1)\n" // own value
	for k := 0; k < cfdNbrs; k++ {
		body += fmt.Sprintf("\tlw a2, %d(a0)\n", 4*k)
		body += "\tslli a2, a2, 2\n\tadd a2, a2, s0\n\tflw fa1, 0(a2)\n"
		body += "\tfsub.s fa1, fa1, fa0\n"
		body += fmt.Sprintf("\tflw fa2, %d(s3)\n", 4*k)
		body += "\tfmadd.s fa0, fa1, fa2, fa0\n"
	}
	body += "\tslli a3, t0, 2\n\tadd a3, a3, s2\n\tfsw fa0, 0(a3)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	li   s2, 0x%x
	li   s3, 0x%x
	li   t5, %d
%s	li   t1, 1
%s	ebreak
`, inBase, in2Base, outBase, auxBase, n,
		partition("t5", "t6", "t0", "t2", "cfd"),
		loopWrap(p.SIMT, "cfd", "t0", "t1", "t2", 1, body))

	return assemble("cfd", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(vals)},
		mem.Segment{Addr: in2Base, Data: wordsToBytes(nbrs)},
		mem.Segment{Addr: auxBase, Data: floatsToBytes(coeffs)})
}

func checkCFD(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := cfdCells(p)
	vals, coeffs, nbrs := cfdData(p)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		acc := vals[i]
		for k := 0; k < cfdNbrs; k++ {
			diff := vals[nbrs[i*cfdNbrs+k]] - acc
			acc = iss.FMA32(diff, coeffs[k], acc)
		}
		want[i] = acc
	}
	return checkFloats(m, outBase, want, "cfd.flux")
}

// ---------------------------------------------------------------------
// myocyte — per-cell ODE integration (Rodinia's myocyte): each cell
// integrates a logistic ODE y' = y(1-y) with forward Euler for 64
// steps — a serial FP dependency chain per cell, parallel across cells
// (inner backward branch: not SIMT-eligible). Scale: 64*Scale cells.
// ---------------------------------------------------------------------

const myoSteps = 64

func myoCells(p Params) int { return 64 * p.Scale }

func buildMyocyte(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := myoCells(p)
	y0 := randFloats(251, n, 0.1, 0.9)

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x       # y0
	li   s2, 0x%x       # out
	lui  a0, %%hi(myo_consts)
	addi a0, a0, %%lo(myo_consts)
	flw  fs0, 0(a0)     # h = 0.01
	flw  fs1, 4(a0)     # 1.0
	li   t5, %d
%scell:
	slli a1, t0, 2
	add  a2, a1, s0
	flw  fa0, 0(a2)     # y
	li   a3, 0
	li   a4, %d
step:
	fsub.s fa1, fs1, fa0   # 1 - y
	fmul.s fa1, fa0, fa1   # y(1-y)
	fmadd.s fa0, fa1, fs0, fa0
	addi a3, a3, 1
	blt  a3, a4, step
	add  a5, a1, s2
	fsw  fa0, 0(a5)
	addi t0, t0, 1
	blt  t0, t2, cell
	ebreak

	.data
	.org 0x%x
myo_consts:
	.float 0.01, 1.0
`, inBase, outBase, n,
		partition("t5", "t1", "t0", "t2", "myo"),
		myoSteps, auxBase)

	return assemble("myocyte", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(y0)})
}

func checkMyocyte(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := myoCells(p)
	y0 := randFloats(251, n, 0.1, 0.9)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		y := y0[i]
		for s := 0; s < myoSteps; s++ {
			y = iss.FMA32(y*(1.0-y), 0.01, y)
		}
		want[i] = y
	}
	return checkFloats(m, outBase, want, "myocyte.y")
}

func init() {
	register(Workload{
		Name: "streamcluster", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildStreamcluster, Check: checkStreamcluster,
	})
	register(Workload{
		Name: "lavamd", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildLavaMD, Check: checkLavaMD,
	})
	register(Workload{
		Name: "cfd", Suite: Rodinia, Class: "memory", FP: true,
		SIMTCapable: true, Build: buildCFD, Check: checkCFD,
	})
	register(Workload{
		Name: "myocyte", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: false, Build: buildMyocyte, Check: checkMyocyte,
	})
}
