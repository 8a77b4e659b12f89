package workloads

import (
	"fmt"

	"diag/internal/iss"
	"diag/internal/mem"
)

// loopWrap emits either a plain counted loop or a SIMT-annotated hardware
// loop (§5.4) around body. rc must already hold the start value, rstep
// the stride, rend the bound. The body may not modify rc/rstep/rend.
func loopWrap(simt bool, lbl, rc, rstep, rend string, interval int, body string) string {
	guard := fmt.Sprintf("\tbge %s, %s, %s_done\n", rc, rend, lbl)
	var loop string
	if simt {
		loop = fmt.Sprintf("%s_s: simt.s %s, %s, %s, %d\n%s\tsimt.e %s, %s, %s_s\n",
			lbl, rc, rstep, rend, interval, body, rc, rend, lbl)
	} else {
		loop = fmt.Sprintf("%s_loop:\n%s\tadd %s, %s, %s\n\tblt %s, %s, %s_loop\n",
			lbl, body, rc, rc, rstep, rc, rend, lbl)
	}
	return guard + loop + lbl + "_done:\n"
}

// ---------------------------------------------------------------------
// backprop — dense layer forward pass (Rodinia's backprop forward phase):
// out[j] = Σ_i in[i] * w[j*N+i], with N = 16 fully unrolled so the
// per-output body is straight-line (SIMT-capable). Scale: M = 64*Scale
// output neurons.
// ---------------------------------------------------------------------

const backpropN = 16

func backpropM(p Params) int { return 64 * p.Scale }

func buildBackprop(p Params) (*mem.Image, error) {
	p = p.normalize()
	m := backpropM(p)
	in := randFloats(11, backpropN, -1, 1)
	w := randFloats(12, m*backpropN, -1, 1)

	var body string
	body += "\tslli t3, t0, 6\n"     // j*64 bytes (N=16 floats)
	body += "\tadd  t3, t3, s1\n"    // &w[j*N]
	body += "\tfcvt.s.w fa0, zero\n" // acc = 0
	for i := 0; i < backpropN; i++ {
		body += fmt.Sprintf("\tflw fa1, %d(s0)\n", 4*i)
		body += fmt.Sprintf("\tflw fa2, %d(t3)\n", 4*i)
		body += "\tfmadd.s fa0, fa1, fa2, fa0\n"
	}
	body += "\tslli t4, t0, 2\n\tadd t4, t4, s2\n\tfsw fa0, 0(t4)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x        # in
	li   s1, 0x%x        # weights
	li   s2, 0x%x        # out
	li   t5, %d          # M
%s	li   t1, 1
%s	ebreak
`, inBase, in2Base, outBase, m,
		partition("t5", "t6", "t0", "t2", "bp"),
		loopWrap(p.SIMT, "bp", "t0", "t1", "t2", 1, body))

	return assemble("backprop", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(in)},
		mem.Segment{Addr: in2Base, Data: floatsToBytes(w)})
}

func checkBackprop(m *mem.Memory, p Params) error {
	p = p.normalize()
	mm := backpropM(p)
	in := randFloats(11, backpropN, -1, 1)
	w := randFloats(12, mm*backpropN, -1, 1)
	want := make([]float32, mm)
	for j := 0; j < mm; j++ {
		var acc float32
		for i := 0; i < backpropN; i++ {
			acc = iss.FMA32(in[i], w[j*backpropN+i], acc)
		}
		want[j] = acc
	}
	return checkFloats(m, outBase, want, "backprop.out")
}

// ---------------------------------------------------------------------
// bfs — level-synchronous breadth-first search over a CSR graph
// (Rodinia's bfs): repeated sweeps assigning levels. The graph is built
// as `Threads` disjoint components so the parallel form needs no
// inter-thread synchronization. Control- and memory-bound. Scale:
// 256*Scale nodes, degree 4.
// ---------------------------------------------------------------------

const bfsDegree = 4

func bfsNodes(p Params) int { return 256 * p.Scale }

// bfsGraph builds a deterministic CSR graph of p.Threads disjoint
// components; edges stay within a node's component.
func bfsGraph(p Params) (row []uint32, col []uint32) {
	n := bfsNodes(p)
	row = make([]uint32, n+1)
	col = make([]uint32, 0, n*bfsDegree)
	words := randWords(21, n*bfsDegree, 1<<30)
	for v := 0; v < n; v++ {
		row[v] = uint32(len(col))
		lo, hi := threadRange(n, compOf(v, n, p.Threads), p.Threads)
		span := hi - lo
		for e := 0; e < bfsDegree; e++ {
			col = append(col, uint32(lo+int(words[v*bfsDegree+e])%span))
		}
	}
	row[n] = uint32(len(col))
	return
}

// compOf maps node v to its component (the thread that owns it).
func compOf(v, n, threads int) int {
	for t := 0; t < threads; t++ {
		lo, hi := threadRange(n, t, threads)
		if v >= lo && v < hi {
			return t
		}
	}
	return 0
}

func buildBFS(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := bfsNodes(p)
	row, col := bfsGraph(p)
	level := make([]uint32, n)
	for v := range level {
		level[v] = 0xFFFFFFFF
	}
	// Each component's root is its first node.
	for t := 0; t < p.Threads; t++ {
		lo, _ := threadRange(n, t, p.Threads)
		level[lo] = 0
	}

	// Memory: row at inBase, col at in2Base, level at outBase.
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x       # row
	li   s1, 0x%x       # col
	li   s2, 0x%x       # level
	li   t5, %d         # n
%s	li   s3, 0          # cur level
sweep:
	li   s4, 0          # changed
	mv   t6, t0         # v = start
vloop:
	slli a0, t6, 2
	add  a1, a0, s2
	lw   a2, 0(a1)      # level[v]
	bne  a2, s3, vnext
	add  a3, a0, s0
	lw   a4, 0(a3)      # row[v]
	lw   a5, 4(a3)      # row[v+1]
eloop:
	bge  a4, a5, vnext
	slli a6, a4, 2
	add  a6, a6, s1
	lw   a7, 0(a6)      # u = col[e]
	slli a6, a7, 2
	add  a6, a6, s2
	lw   s5, 0(a6)      # level[u]
	addi s6, s3, 1
	bgeu s6, s5, enext  # already labeled with <= level
	sw   s6, 0(a6)
	li   s4, 1
enext:
	addi a4, a4, 1
	j    eloop
vnext:
	addi t6, t6, 1
	blt  t6, t2, vloop
	addi s3, s3, 1
	bnez s4, sweep
	ebreak
`, inBase, in2Base, outBase, n,
		partition("t5", "t1", "t0", "t2", "bfs"))

	return assemble("bfs", src,
		mem.Segment{Addr: inBase, Data: wordsToBytes(row)},
		mem.Segment{Addr: in2Base, Data: wordsToBytes(col)},
		mem.Segment{Addr: outBase, Data: wordsToBytes(level)})
}

func checkBFS(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := bfsNodes(p)
	row, col := bfsGraph(p)
	level := make([]uint32, n)
	for v := range level {
		level[v] = 0xFFFFFFFF
	}
	for t := 0; t < p.Threads; t++ {
		lo, hi := threadRange(n, t, p.Threads)
		level[lo] = 0
		cur := uint32(0)
		for {
			changed := false
			for v := lo; v < hi; v++ {
				if level[v] != cur {
					continue
				}
				for e := row[v]; e < row[v+1]; e++ {
					u := col[e]
					if cur+1 < level[u] {
						level[u] = cur + 1
						changed = true
					}
				}
			}
			cur++
			if !changed {
				break
			}
		}
	}
	return checkWords(m, outBase, level, "bfs.level")
}

// ---------------------------------------------------------------------
// btree — batched search over a sorted key array (the lookup core of
// Rodinia's b+tree): binary search per query, storing the matching
// index. Control-bound with data-dependent branches. Scale: 4096*Scale
// keys, 256*Scale queries.
// ---------------------------------------------------------------------

func btreeSizes(p Params) (keys, queries int) { return 4096 * p.Scale, 256 * p.Scale }

func btreeData(p Params) (keys []uint32, queries []uint32) {
	nk, nq := btreeSizes(p)
	keys = make([]uint32, nk)
	acc := uint32(7)
	g := randWords(31, nk, 5)
	for i := range keys {
		acc += g[i] + 1
		keys[i] = acc
	}
	qi := randWords(32, nq, uint32(nk))
	queries = make([]uint32, nq)
	for i := range queries {
		queries[i] = keys[qi[i]] // every query hits
	}
	return
}

func buildBTree(p Params) (*mem.Image, error) {
	p = p.normalize()
	nk, nq := btreeSizes(p)
	keys, queries := btreeData(p)

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x       # keys
	li   s1, 0x%x       # queries
	li   s2, 0x%x       # out indices
	li   s3, %d         # nk
	li   t5, %d         # nq
%sqloop:
	slli a0, t0, 2
	add  a1, a0, s1
	lw   a2, 0(a1)      # q
	li   a3, 0          # lo
	mv   a4, s3         # hi
bsearch:
	bge  a3, a4, done_q
	add  a5, a3, a4
	srli a5, a5, 1      # mid
	slli a6, a5, 2
	add  a6, a6, s0
	lw   a7, 0(a6)      # keys[mid]
	beq  a7, a2, found
	bltu a7, a2, goright
	mv   a4, a5
	j    bsearch
goright:
	addi a3, a5, 1
	j    bsearch
found:
	mv   a3, a5
	j    store_q
done_q:
	li   a3, -1
store_q:
	add  a1, a0, s2
	sw   a3, 0(a1)
	addi t0, t0, 1
	blt  t0, t2, qloop
	ebreak
`, inBase, in2Base, outBase, nk, nq,
		partition("t5", "t1", "t0", "t2", "bt"))

	return assemble("btree", src,
		mem.Segment{Addr: inBase, Data: wordsToBytes(keys)},
		mem.Segment{Addr: in2Base, Data: wordsToBytes(queries)})
}

func checkBTree(m *mem.Memory, p Params) error {
	p = p.normalize()
	nk, nq := btreeSizes(p)
	keys, queries := btreeData(p)
	want := make([]uint32, nq)
	for i, q := range queries {
		lo, hi := 0, nk
		want[i] = 0xFFFFFFFF
		for lo < hi {
			mid := (lo + hi) / 2
			switch {
			case keys[mid] == q:
				want[i] = uint32(mid)
				lo = hi + 1 // break
			case keys[mid] < q:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		if want[i] == 0xFFFFFFFF {
			return fmt.Errorf("btree test data broken: query %d not found", i)
		}
	}
	return checkWords(m, outBase, want, "btree.idx")
}

// ---------------------------------------------------------------------
// heartwall — sliding-window correlation (the tracking core of Rodinia's
// heartwall): out[p] = Σ_{k<16} frame[p+k] * tmpl[k], window fully
// unrolled (SIMT-capable). FP MACs over overlapping windows. Scale:
// 512*Scale positions.
// ---------------------------------------------------------------------

const hwWin = 16

func hwPositions(p Params) int { return 512 * p.Scale }

func buildHeartwall(p Params) (*mem.Image, error) {
	p = p.normalize()
	n := hwPositions(p)
	frame := randFloats(41, n+hwWin, 0, 2)
	tmpl := randFloats(42, hwWin, -1, 1)

	var body string
	body += "\tslli t3, t0, 2\n\tadd t3, t3, s0\n" // &frame[p]
	body += "\tfcvt.s.w fa0, zero\n"
	for k := 0; k < hwWin; k++ {
		body += fmt.Sprintf("\tflw fa1, %d(t3)\n", 4*k)
		body += fmt.Sprintf("\tflw fa2, %d(s1)\n", 4*k)
		body += "\tfmadd.s fa0, fa1, fa2, fa0\n"
	}
	body += "\tslli t4, t0, 2\n\tadd t4, t4, s2\n\tfsw fa0, 0(t4)\n"

	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	li   s2, 0x%x
	li   t5, %d
%s	li   t1, 1
%s	ebreak
`, inBase, in2Base, outBase, n,
		partition("t5", "t6", "t0", "t2", "hw"),
		loopWrap(p.SIMT, "hw", "t0", "t1", "t2", 1, body))

	return assemble("heartwall", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(frame)},
		mem.Segment{Addr: in2Base, Data: floatsToBytes(tmpl)})
}

func checkHeartwall(m *mem.Memory, p Params) error {
	p = p.normalize()
	n := hwPositions(p)
	frame := randFloats(41, n+hwWin, 0, 2)
	tmpl := randFloats(42, hwWin, -1, 1)
	want := make([]float32, n)
	for pos := 0; pos < n; pos++ {
		var acc float32
		for k := 0; k < hwWin; k++ {
			acc = iss.FMA32(frame[pos+k], tmpl[k], acc)
		}
		want[pos] = acc
	}
	return checkFloats(m, outBase, want, "heartwall.out")
}

// ---------------------------------------------------------------------
// hotspot — 5-point thermal stencil (Rodinia's hotspot): one Jacobi
// step over an R×64 grid, interior cells only. Streaming FP; the
// per-cell body is straight-line with forward boundary branches, so it
// is SIMT-capable. Scale: R = 16*Scale rows.
// ---------------------------------------------------------------------

const hsCols = 64

func hsRows(p Params) int { return 16 * p.Scale }

func buildHotspot(p Params) (*mem.Image, error) {
	p = p.normalize()
	r := hsRows(p)
	grid := randFloats(51, r*hsCols, 0, 100)

	body := `	andi a0, t0, 63
	beqz a0, hs_skip
	addi a1, a0, -63
	beqz a1, hs_skip
	slli a2, t0, 2
	add  a3, a2, s0
	flw  fa0, 0(a3)       # center
	flw  fa1, -4(a3)      # left
	flw  fa2, 4(a3)       # right
	flw  fa3, -256(a3)    # up
	flw  fa4, 256(a3)     # down
	fadd.s fa5, fa1, fa2
	fadd.s fa6, fa3, fa4
	fadd.s fa5, fa5, fa6
	fadd.s fa6, fa0, fa0
	fadd.s fa6, fa6, fa6
	fsub.s fa5, fa5, fa6  # laplacian
	fmadd.s fa7, fa5, fs0, fa0
	add  a3, a2, s1
	fsw  fa7, 0(a3)
hs_skip:
`
	src := fmt.Sprintf(`_start:
	li   s0, 0x%x
	li   s1, 0x%x
	li   t5, %d            # interior count basis: total cells
	lui  a0, %%hi(quarter)
	addi a0, a0, %%lo(quarter)
	flw  fs0, 0(a0)
%s	# clamp range to interior rows [64, total-64)
	li   a1, 64
	blt  t0, a1, hs_clamp_lo_done
	j    hs_lo_ok
hs_clamp_lo_done:
	mv   t0, a1
hs_lo_ok:
	li   a1, %d
	blt  t2, a1, hs_hi_ok
	mv   t2, a1
hs_hi_ok:
	li   t1, 1
%s	ebreak

	.data
	.org 0x%x
quarter:
	.float 0.25
`, inBase, outBase, r*hsCols,
		partition("t5", "t6", "t0", "t2", "hs"),
		r*hsCols-hsCols,
		loopWrap(p.SIMT, "hs", "t0", "t1", "t2", 1, body),
		auxBase)

	return assemble("hotspot", src,
		mem.Segment{Addr: inBase, Data: floatsToBytes(grid)})
}

func checkHotspot(m *mem.Memory, p Params) error {
	p = p.normalize()
	r := hsRows(p)
	grid := randFloats(51, r*hsCols, 0, 100)
	want := make([]float32, r*hsCols)
	total := r * hsCols
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
			sum := (grid[i-1] + grid[i+1]) + (grid[i-hsCols] + grid[i+hsCols])
			lap := sum - ((grid[i] + grid[i]) + (grid[i] + grid[i]))
			want[i] = iss.FMA32(lap, 0.25, grid[i])
		}
	}
	return checkFloats(m, outBase, want, "hotspot.out")
}

func init() {
	register(Workload{
		Name: "backprop", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildBackprop, Check: checkBackprop,
	})
	register(Workload{
		Name: "bfs", Suite: Rodinia, Class: "memory", FP: false,
		SIMTCapable: false, Build: buildBFS, Check: checkBFS,
	})
	register(Workload{
		Name: "btree", Suite: Rodinia, Class: "control", FP: false,
		SIMTCapable: false, Build: buildBTree, Check: checkBTree,
	})
	register(Workload{
		Name: "heartwall", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildHeartwall, Check: checkHeartwall,
	})
	register(Workload{
		Name: "hotspot", Suite: Rodinia, Class: "compute", FP: true,
		SIMTCapable: true, Build: buildHotspot, Check: checkHotspot,
	})
}
