package ooo

import (
	"fmt"
	"strings"
	"testing"

	"diag/internal/asm"
	"diag/internal/iss"
	"diag/internal/mem"
)

func build(t testing.TB, src string) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func runOn(t testing.TB, cfg Config, img *mem.Image) (Stats, *mem.Memory) {
	t.Helper()
	st, m, err := RunImage(cfg, img)
	if err != nil {
		t.Fatalf("RunImage(%s): %v", cfg.Name, err)
	}
	return st, m
}

func issRun(t testing.TB, img *mem.Image) *iss.CPU {
	t.Helper()
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	c := iss.New(m, entry)
	c.Run(50_000_000)
	if !c.Halted || c.Err != nil {
		t.Fatalf("iss: halted=%v err=%v", c.Halted, c.Err)
	}
	return c
}

const sumLoop = `
	li   t0, 0
	li   t1, 0
	li   t2, 500
loop:
	add  t0, t0, t1
	addi t1, t1, 1
	blt  t1, t2, loop
	li   t6, 0x600
	sw   t0, 0(t6)
	ebreak
`

func TestMatchesISS(t *testing.T) {
	img := build(t, sumLoop)
	ref := issRun(t, img)
	st, m := runOn(t, Baseline(), img)
	if m.LoadWord(0x600) != ref.Mem.LoadWord(0x600) {
		t.Errorf("result %d, want %d", m.LoadWord(0x600), ref.Mem.LoadWord(0x600))
	}
	if st.Retired != ref.Instret {
		t.Errorf("retired %d, want %d", st.Retired, ref.Instret)
	}
	if st.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestPredictorLearnsLoop(t *testing.T) {
	img := build(t, sumLoop)
	st, _ := runOn(t, Baseline(), img)
	// 500-iteration loop branch: after warm-up, near-perfect prediction.
	if st.MispredictRate() > 0.05 {
		t.Errorf("loop branch mispredict rate %.3f too high (%d/%d)",
			st.MispredictRate(), st.Mispredicts, st.Branches)
	}
}

func TestILPWideIssue(t *testing.T) {
	// Independent chains in a hot loop: an 8-wide core should sustain
	// IPC well above 2.
	var b strings.Builder
	for c := 0; c < 8; c++ {
		fmt.Fprintf(&b, "\tli s%d, %d\n", c, c+1)
	}
	b.WriteString("\tli t5, 0\n\tli t6, 300\nloop:\n")
	for i := 0; i < 6; i++ {
		for c := 0; c < 8; c++ {
			fmt.Fprintf(&b, "\tadd s%d, s%d, s%d\n", c, c, c)
		}
	}
	b.WriteString("\taddi t5, t5, 1\n\tblt t5, t6, loop\n\tebreak\n")
	st, _ := runOn(t, Baseline(), build(t, b.String()))
	if st.IPC() < 2.0 {
		t.Errorf("wide OoO should exceed IPC 2 on independent chains, got %.2f", st.IPC())
	}
}

func TestSerialChainBoundsIPC(t *testing.T) {
	var b strings.Builder
	b.WriteString("\tli t0, 1\n\tli t5, 0\n\tli t6, 300\nloop:\n")
	for i := 0; i < 32; i++ {
		b.WriteString("\tadd t0, t0, t0\n")
	}
	b.WriteString("\taddi t5, t5, 1\n\tblt t5, t6, loop\n\tebreak\n")
	st, _ := runOn(t, Baseline(), build(t, b.String()))
	// 32 dependent adds + 2 loop insts per iteration: IPC near 1.
	if st.IPC() > 1.4 {
		t.Errorf("dependent chain should bound IPC near 1, got %.2f", st.IPC())
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// Data-dependent unpredictable branches (LCG parity) vs the same
	// loop without them: mispredicts must cost cycles.
	base := `
	li   t0, 12345
	li   t1, 0
	li   t2, 4000
	li   s0, 0
	li   s1, 1103515245
	li   s2, 12345
loop:
	mul  t0, t0, s1
	add  t0, t0, s2
	srli t3, t0, 16
	andi t3, t3, 1
	%s
	addi t1, t1, 1
	blt  t1, t2, loop
	ebreak
`
	predictable := fmt.Sprintf(base, "addi s0, s0, 1")
	branchy := fmt.Sprintf(base, "beqz t3, skip\n\taddi s0, s0, 1\nskip:")
	p, _ := runOn(t, Baseline(), build(t, predictable))
	b, _ := runOn(t, Baseline(), build(t, branchy))
	if b.Mispredicts < 500 {
		t.Errorf("LCG parity branch should mispredict often: %d", b.Mispredicts)
	}
	if b.Cycles <= p.Cycles {
		t.Errorf("mispredicts should cost cycles: %d vs %d", b.Cycles, p.Cycles)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	src := `
	li   t0, 0x600
	li   t1, 0
	li   t2, 2000
	li   t3, 7
loop:
	sw   t3, 0(t0)
	lw   t4, 0(t0)     # forwarded from the store
	add  t3, t4, t3
	addi t1, t1, 1
	blt  t1, t2, loop
	ebreak
	`
	st, _ := runOn(t, Baseline(), build(t, src))
	if st.StoreForwards < 1000 {
		t.Errorf("expected heavy store-to-load forwarding, got %d", st.StoreForwards)
	}
}

func TestMemoryBoundSlower(t *testing.T) {
	// Same instruction count; one walks 8 MB (cache-hostile), one reuses
	// 4 KB (cache-friendly).
	prog := func(mask uint32) string {
		return fmt.Sprintf(`
	li   t0, 0x100000
	li   t1, 0
	li   t2, 30000
	li   t5, 0x%x
	li   s0, 0
loop:
	slli t3, t1, 6        # stride 64B
	and  t3, t3, t5
	add  t3, t3, t0
	lw   t4, 0(t3)
	add  s0, s0, t4
	addi t1, t1, 1
	blt  t1, t2, loop
	ebreak
`, mask)
	}
	hostile, _ := runOn(t, Baseline(), build(t, prog(0x7FFFFF)))
	friendly, _ := runOn(t, Baseline(), build(t, prog(0xFFF)))
	if hostile.Cycles <= friendly.Cycles*2 {
		t.Errorf("cache-hostile walk should be much slower: %d vs %d",
			hostile.Cycles, friendly.Cycles)
	}
}

func TestMulticorePartitioning(t *testing.T) {
	src := `
	li   t0, 4096
	divu t1, t0, gp
	mul  t2, t1, tp
	add  t3, t2, t1
	li   s0, 0x100000
	li   s1, 0
loop:
	slli t4, t2, 2
	add  t4, t4, s0
	lw   t5, 0(t4)
	add  s1, s1, t5
	addi t2, t2, 1
	blt  t2, t3, loop
	slli t6, tp, 2
	li   s2, 0x600
	add  s2, s2, t6
	sw   s1, 0(s2)
	ebreak
	`
	img := build(t, src)
	data := make([]byte, 4*4096)
	for i := 0; i < 4096; i++ {
		w := uint32(i)
		data[4*i] = byte(w)
		data[4*i+1] = byte(w >> 8)
		data[4*i+2] = byte(w >> 16)
		data[4*i+3] = byte(w >> 24)
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})

	one, m1 := runOn(t, Baseline(), img)
	twelve, m12 := runOn(t, BaselineMulticore(12), img)
	// Single core writes only slot 0 (gp=1): total = full sum.
	if m1.LoadWord(0x600) != 4095*4096/2 {
		t.Errorf("single core sum = %d", m1.LoadWord(0x600))
	}
	total := uint32(0)
	for i := 0; i < 12; i++ {
		total += m12.LoadWord(uint32(0x600 + 4*i))
	}
	// 4096/12 leaves a remainder unprocessed by the simple partitioning;
	// check the partial sum over the covered range.
	chunk := 4096 / 12
	covered := uint32(0)
	for i := 0; i < 12*chunk; i++ {
		covered += uint32(i)
	}
	if total != covered {
		t.Errorf("12-core sum = %d, want %d", total, covered)
	}
	if twelve.Cycles >= one.Cycles {
		t.Errorf("12 cores should beat 1: %d vs %d cycles", twelve.Cycles, one.Cycles)
	}
}

func TestROBLimitsWindow(t *testing.T) {
	// A long-latency load followed by many independent instructions: a
	// small ROB forces them to wait; a large ROB hides the miss.
	var b strings.Builder
	b.WriteString("\tli s0, 0x100000\n\tli t5, 0\n\tli t6, 200\nloop:\n")
	b.WriteString("\tslli t4, t5, 6\n\tadd t4, t4, s0\n\tlw s1, 0(t4)\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "\taddi s%d, s%d, 1\n", 2+i%6, 2+i%6)
	}
	b.WriteString("\taddi t5, t5, 1\n\tblt t5, t6, loop\n\tebreak\n")
	img := build(t, b.String())

	small := Baseline()
	small.Name = "rob-8"
	small.ROBSize = 16
	big := Baseline()
	sm, _ := runOn(t, small, img)
	lg, _ := runOn(t, big, img)
	if lg.Cycles >= sm.Cycles {
		t.Errorf("large ROB should hide misses: %d vs %d", lg.Cycles, sm.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	c := Config{ROBSize: 4, IssueWidth: 8}
	if err := c.Validate(); err == nil {
		t.Error("tiny ROB should be rejected")
	}
	if err := Baseline().Validate(); err != nil {
		t.Errorf("baseline invalid: %v", err)
	}
}

func TestAbnormalHalt(t *testing.T) {
	img := build(t, "ecall\n")
	if _, _, err := RunImage(Baseline(), img); err == nil {
		t.Error("ecall should error")
	}
}

func TestInstructionCap(t *testing.T) {
	cfg := Baseline()
	cfg.MaxInstructions = 50
	img := build(t, "spin: j spin\n")
	if _, _, err := RunImage(cfg, img); err == nil {
		t.Error("infinite loop should hit the cap")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.MispredictRate() != 0 {
		t.Error("empty stats should be zero")
	}
	s = Stats{Cycles: 10, Retired: 25, Branches: 4, Mispredicts: 1}
	if s.IPC() != 2.5 || s.MispredictRate() != 0.25 {
		t.Error("stat math wrong")
	}
	o := Stats{Cycles: 5, Retired: 5}
	s.Merge(o)
	if s.Cycles != 10 || s.Retired != 30 {
		t.Error("merge wrong")
	}
}

// FP pipeline sanity: fused FP code runs and uses the FP pool.
func TestFPExecution(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 1000
	li   s0, 0x100000
	fcvt.s.w fa0, zero
	li   t2, 3
	fcvt.s.w fa1, t2
loop:
	fmadd.s fa0, fa1, fa1, fa0
	addi t0, t0, 1
	blt  t0, t1, loop
	fsw  fa0, 0(s0)
	ebreak
	`
	st, m := runOn(t, Baseline(), build(t, src))
	if st.FPBusyCycles == 0 {
		t.Error("FP pool unused")
	}
	if got := m.LoadFloat32(0x100000); got != 9000 {
		t.Errorf("fp result %v, want 9000", got)
	}
	ref := issRun(t, build(t, src))
	if ref.Mem.LoadFloat32(0x100000) != m.LoadFloat32(0x100000) {
		t.Error("OoO and ISS disagree on FP result")
	}
}

func TestJALRReturnPredictedByRAS(t *testing.T) {
	src := `
	li   t0, 0
	li   t1, 2000
loop:
	call bump
	blt  t0, t1, loop
	ebreak
bump:
	addi t0, t0, 1
	ret
	`
	st, _ := runOn(t, Baseline(), build(t, src))
	// Returns should be well-predicted: mispredicts mostly from warm-up.
	if st.Mispredicts > st.Branches/2+50 {
		t.Errorf("RAS should predict returns: mispredicts=%d branches=%d",
			st.Mispredicts, st.Branches)
	}
}

// TestNoL2 pins Config.L2Size <= 0 as "no shared L2" at every core
// count: a multicore machine must not partition a phantom L2 out of a
// non-positive size.
func TestNoL2(t *testing.T) {
	img := shardImage(t)
	for _, cores := range []int{1, 2} {
		for _, size := range []int{-1, 0} {
			cfg := BaselineMulticore(cores)
			cfg.L2Size = size
			st, _, err := RunImage(cfg, img)
			if err != nil {
				t.Fatalf("cores=%d L2Size=%d: %v", cores, size, err)
			}
			if size == 0 { // defaults to 4 MiB: the L2 is there
				if st.L2.Accesses == 0 {
					t.Errorf("cores=%d default L2: no L2 accesses", cores)
				}
				continue
			}
			if st.L2.Accesses != 0 || st.DRAMAccesses == 0 {
				t.Errorf("cores=%d L2Size=%d: %d L2 accesses, %d DRAM accesses; want 0 and > 0",
					cores, size, st.L2.Accesses, st.DRAMAccesses)
			}
		}
	}
}
