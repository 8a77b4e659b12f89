// Package workloads provides the benchmark kernels used to reproduce the
// paper's evaluation (§7): ten Rodinia-class kernels and ten SPEC
// CPU2017-class kernels, each hand-written in RV32IMF assembly.
//
// The paper itself modifies, trims, and projects the original suites to
// fit RTL simulation (§7.1); what its numbers exercise is each
// benchmark's loop-dominated computational core. Every kernel here
// reproduces the loop structure, instruction mix, and memory-access
// pattern class of its namesake:
//
//	backprop    dense layer forward pass        FP MAC, streaming
//	bfs         frontier BFS over CSR           data-dependent loads, branchy
//	btree       batched sorted-array search     binary-search control flow
//	heartwall   window correlation              FP MAC over 2D windows
//	hotspot     5-point stencil                 FP streaming stencil
//	kmeans      nearest-centroid assignment     FP distances, reductions
//	lud         LU decomposition                loop-carried FP
//	nw          Needleman-Wunsch DP             int DP, 2D dependences
//	pathfinder  row DP minimum                  int streaming DP
//	srad        diffusion stencil               FP with divides
//
//	perlbench   string hashing                  int, byte loads, branchy
//	mcf         arc pointer chasing             memory-latency bound
//	x264        4x4 SAD search                  int abs-diff, dense
//	deepsjeng   bitboard move scan              shifts/popcount, branchy
//	leela       neighbor counting               int, small windows
//	xz          LZ match scan                   byte compares, branchy
//	lbm         lattice site update             FP streaming, wide lines
//	imagick     3x3 convolution                 FP MAC stencil
//	nab         force accumulation              FP with sqrt/div
//	povray      ray-sphere intersection         FP dot products
//
// Every workload has a serial form, a parallel form (outer loop
// partitioned by the tp/gp thread convention), and — where its parallel
// loop body is straight-line — a SIMT form with simt.s/simt.e
// annotations (the paper inserts these manually too, §5.4). A Go
// reference implementation checks the final memory of every run.
package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diag/internal/asm"
	"diag/internal/mem"
)

// Suite tags a workload's origin.
type Suite int

// Benchmark suites of the paper's evaluation.
const (
	Rodinia Suite = iota
	SPEC
)

func (s Suite) String() string {
	if s == Rodinia {
		return "rodinia"
	}
	return "spec"
}

// Params selects the problem size and execution shape of one build.
type Params struct {
	Scale   int  // problem-size knob; each workload documents its meaning
	Threads int  // 1 = serial; >1 = partitioned parallel form
	SIMT    bool // annotate the parallel loop with simt.s/simt.e
}

func (p Params) normalize() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	return p
}

// Workload is one benchmark kernel.
type Workload struct {
	Name  string
	Suite Suite
	// Class summarizes the bottleneck: "compute", "memory", "control",
	// or "mixed" — used by the bench harness to interpret results.
	Class string
	FP    bool
	// SIMTCapable reports whether the kernel has a straight-line
	// parallel loop body eligible for thread pipelining.
	SIMTCapable bool

	// Build generates the program image for p.
	Build func(p Params) (*mem.Image, error)
	// Check validates the final memory of a run built with p.
	Check func(m *mem.Memory, p Params) error
}

var registry []Workload

func register(w Workload) { registry = append(registry, w) }

// All returns every registered workload.
func All() []Workload { return append([]Workload(nil), registry...) }

// BySuite returns the workloads of one suite.
func BySuite(s Suite) []Workload {
	var out []Workload
	for _, w := range registry {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// ByName looks a workload up.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// ---- shared data-layout helpers ----

// Standard data addresses. Every kernel documents its own layout within
// these regions.
const (
	inBase  = 0x0010_0000 // input arrays
	in2Base = 0x0018_0000 // second input region
	outBase = 0x0020_0000 // outputs checked by Check
	auxBase = 0x0028_0000 // scratch
)

func wordsToBytes(ws []uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

func floatsToBytes(fs []float32) []byte {
	b := make([]byte, 4*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

// randFloats returns n deterministic floats in [lo, hi).
func randFloats(seed int64, n int, lo, hi float32) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.Float32()
	}
	return out
}

// randWords returns n deterministic words in [0, max).
func randWords(seed int64, n int, max uint32) []uint32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.Intn(int(max)))
	}
	return out
}

// assemble builds the image and attaches segments, wrapping assembler
// diagnostics with the workload name.
func assemble(name, src string, segs ...mem.Segment) (*mem.Image, error) {
	img, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	img.Segments = append(img.Segments, segs...)
	if err := checkOverlap(name, img.Segments); err != nil {
		return nil, err
	}
	return img, nil
}

// checkOverlap rejects an image whose data segments overlap: loading it
// would silently let the later segment clobber the earlier one, which
// is how an input that outgrows its region shows up.
func checkOverlap(name string, segs []mem.Segment) error {
	byAddr := append([]mem.Segment(nil), segs...)
	sort.Slice(byAddr, func(i, j int) bool { return byAddr[i].Addr < byAddr[j].Addr })
	var prev mem.Segment // the segment reaching furthest so far
	end := func(s mem.Segment) uint64 { return uint64(s.Addr) + uint64(len(s.Data)) }
	for _, s := range byAddr {
		if len(s.Data) == 0 {
			continue
		}
		if end(prev) > uint64(s.Addr) {
			return fmt.Errorf("workload %s: input segments overlap: [%#x, %#x) and [%#x, %#x)",
				name, prev.Addr, end(prev), s.Addr, end(s))
		}
		if end(s) > end(prev) {
			prev = s
		}
	}
	return nil
}

// partition emits the standard outer-loop partitioning prologue: with the
// total iteration count in register `total`, it leaves this thread's
// [start, end) range in the named registers. Uses the tp/gp convention;
// the last thread absorbs the remainder. The label prefix must be unique
// within the program.
func partition(total, chunk, start, end, lbl string) string {
	return fmt.Sprintf(`	divu %[2]s, %[1]s, gp      # chunk = total / nthreads
	mul  %[3]s, %[2]s, tp      # start = tid * chunk
	add  %[4]s, %[3]s, %[2]s   # end = start + chunk
	addi %[2]s, gp, -1
	bne  tp, %[2]s, %[5]s_part # last thread absorbs the remainder
	mv   %[4]s, %[1]s
%[5]s_part:
`, total, chunk, start, end, lbl)
}

// checkWords compares expected words against memory at base.
func checkWords(m *mem.Memory, base uint32, want []uint32, what string) error {
	for i, w := range want {
		if got := m.LoadWord(base + uint32(4*i)); got != w {
			return fmt.Errorf("%s[%d] = %d (0x%x), want %d (0x%x)", what, i, got, got, w, w)
		}
	}
	return nil
}

// checkFloats compares expected float32 values bit-exactly (both sides
// are computed with the same float32 operation order).
func checkFloats(m *mem.Memory, base uint32, want []float32, what string) error {
	for i, f := range want {
		gotBits := m.LoadWord(base + uint32(4*i))
		wantBits := math.Float32bits(f)
		if gotBits != wantBits {
			return fmt.Errorf("%s[%d] = %v (0x%08x), want %v (0x%08x)",
				what, i, math.Float32frombits(gotBits), gotBits, f, wantBits)
		}
	}
	return nil
}

// threadRange mirrors the partition() prologue in Go for the reference
// checks.
func threadRange(total, tid, threads int) (int, int) {
	chunk := total / threads
	start := tid * chunk
	end := start + chunk
	if tid == threads-1 {
		end = total
	}
	return start, end
}
