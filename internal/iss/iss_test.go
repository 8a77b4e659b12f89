package iss

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"diag/internal/isa"
	"diag/internal/mem"
)

// run assembles the instruction list at 0x1000, executes until halt, and
// returns the CPU.
func run(t *testing.T, prog []isa.Inst) *CPU {
	t.Helper()
	c := load(t, prog)
	if n := c.Run(100000); n == 100000 {
		t.Fatal("program did not halt")
	}
	if c.Err != nil {
		t.Fatalf("abnormal halt: %v", c.Err)
	}
	return c
}

func load(t *testing.T, prog []isa.Inst) *CPU {
	t.Helper()
	img := &mem.Image{Entry: 0x1000, TextAddr: 0x1000}
	for _, in := range prog {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		img.Text = append(img.Text, w)
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, entry)
}

func TestBasicALU(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 5},
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 7},
		{Op: isa.OpADD, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpSUB, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpXOR, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A2] != 12 {
		t.Errorf("add: %d", c.X[isa.A2])
	}
	if int32(c.X[isa.A3]) != -2 {
		t.Errorf("sub: %d", int32(c.X[isa.A3]))
	}
	if c.X[isa.A4] != 2 {
		t.Errorf("xor: %d", c.X[isa.A4])
	}
	if c.Instret != 5 { // ebreak halts without retiring
		t.Errorf("instret = %d", c.Instret)
	}
}

func TestX0Hardwired(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.Zero, Rs1: isa.Zero, Imm: 99},
		{Op: isa.OpEBREAK},
	})
	if c.X[0] != 0 {
		t.Error("x0 must stay zero")
	}
}

func TestShifts(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -8},
		{Op: isa.OpSRAI, Rd: isa.A1, Rs1: isa.A0, Imm: 1},
		{Op: isa.OpSRLI, Rd: isa.A2, Rs1: isa.A0, Imm: 28},
		{Op: isa.OpSLLI, Rd: isa.A3, Rs1: isa.A0, Imm: 4},
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A1]) != -4 {
		t.Errorf("srai: %d", int32(c.X[isa.A1]))
	}
	if c.X[isa.A2] != 0xF {
		t.Errorf("srli: %x", c.X[isa.A2])
	}
	if c.X[isa.A3] != uint32(0xFFFFFF80) {
		t.Errorf("slli: %x", c.X[isa.A3])
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// sum = 0; for i = 0; i < 10; i++ { sum += i }
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0},   // sum
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 0},   // i
		{Op: isa.OpADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 10},  // n
		{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.A1}, // loop:
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.A1, Imm: 1},
		{Op: isa.OpBLT, Rs1: isa.A1, Rs2: isa.A2, Imm: -8},
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A0] != 45 {
		t.Errorf("loop sum = %d, want 45", c.X[isa.A0])
	}
}

func TestJALAndJALR(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpJAL, Rd: isa.RA, Imm: 12},                // 0x1000: call +12 -> 0x100c
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 1}, // 0x1004: executed after return
		{Op: isa.OpEBREAK},                                  // 0x1008
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 2}, // 0x100c: callee
		{Op: isa.OpJALR, Rd: isa.Zero, Rs1: isa.RA, Imm: 0}, // ret
	})
	if c.X[isa.A0] != 1 || c.X[isa.A1] != 2 {
		t.Errorf("call/ret: a0=%d a1=%d", c.X[isa.A0], c.X[isa.A1])
	}
	if c.X[isa.RA] != 0x1004 {
		t.Errorf("ra = 0x%x", c.X[isa.RA])
	}
}

func TestLoadsStores(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: isa.A0, Imm: 0x8000},             // a0 = 0x8000
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: -1}, // a1 = 0xFFFFFFFF
		{Op: isa.OpSW, Rs1: isa.A0, Rs2: isa.A1, Imm: 0},
		{Op: isa.OpADDI, Rd: isa.A2, Rs1: isa.Zero, Imm: 0x55},
		{Op: isa.OpSB, Rs1: isa.A0, Rs2: isa.A2, Imm: 1},
		{Op: isa.OpLW, Rd: isa.A3, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpLB, Rd: isa.A4, Rs1: isa.A0, Imm: 3},
		{Op: isa.OpLBU, Rd: isa.A5, Rs1: isa.A0, Imm: 3},
		{Op: isa.OpLH, Rd: isa.A6, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpLHU, Rd: isa.A7, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpSH, Rs1: isa.A0, Rs2: isa.A2, Imm: 4},
		{Op: isa.OpEBREAK},
	})
	c.Run(100)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.X[isa.A3] != 0xFFFF55FF {
		t.Errorf("lw after sb: 0x%x", c.X[isa.A3])
	}
	if int32(c.X[isa.A4]) != -1 {
		t.Errorf("lb: %d", int32(c.X[isa.A4]))
	}
	if c.X[isa.A5] != 0xFF {
		t.Errorf("lbu: 0x%x", c.X[isa.A5])
	}
	if int32(c.X[isa.A6]) != 0x55FF {
		t.Errorf("lh: 0x%x", c.X[isa.A6])
	}
	if c.X[isa.A7] != 0x55FF {
		t.Errorf("lhu: 0x%x", c.X[isa.A7])
	}
	if c.Mem.LoadHalf(0x8004) != 0x55 {
		t.Errorf("sh: 0x%x", c.Mem.LoadHalf(0x8004))
	}
}

func TestMulDiv(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -7},
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 3},
		{Op: isa.OpMUL, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpMULH, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpMULHU, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpDIV, Rd: isa.A5, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpREM, Rd: isa.A6, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpDIVU, Rd: isa.A7, Rs1: isa.A0, Rs2: isa.A1},
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A2]) != -21 {
		t.Errorf("mul: %d", int32(c.X[isa.A2]))
	}
	if int32(c.X[isa.A3]) != -1 {
		t.Errorf("mulh: %d", int32(c.X[isa.A3]))
	}
	if c.X[isa.A4] != uint32(uint64(uint32(0xFFFFFFF9))*3>>32) {
		t.Errorf("mulhu: %d", c.X[isa.A4])
	}
	if int32(c.X[isa.A5]) != -2 {
		t.Errorf("div: %d", int32(c.X[isa.A5]))
	}
	if int32(c.X[isa.A6]) != -1 {
		t.Errorf("rem: %d", int32(c.X[isa.A6]))
	}
	if c.X[isa.A7] != 0xFFFFFFF9/3 {
		t.Errorf("divu: %d", c.X[isa.A7])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 7},
		{Op: isa.OpDIV, Rd: isa.A1, Rs1: isa.A0, Rs2: isa.Zero},  // div by 0 -> -1
		{Op: isa.OpREM, Rd: isa.A2, Rs1: isa.A0, Rs2: isa.Zero},  // rem by 0 -> rs1
		{Op: isa.OpDIVU, Rd: isa.A3, Rs1: isa.A0, Rs2: isa.Zero}, // -> all ones
		{Op: isa.OpREMU, Rd: isa.A4, Rs1: isa.A0, Rs2: isa.Zero}, // -> rs1
		{Op: isa.OpLUI, Rd: isa.A5, Imm: -2147483648},            // MinInt32
		{Op: isa.OpADDI, Rd: isa.A6, Rs1: isa.Zero, Imm: -1},
		{Op: isa.OpDIV, Rd: isa.A7, Rs1: isa.A5, Rs2: isa.A6}, // overflow -> MinInt32
		{Op: isa.OpREM, Rd: isa.T0, Rs1: isa.A5, Rs2: isa.A6}, // overflow -> 0
		{Op: isa.OpEBREAK},
	})
	if int32(c.X[isa.A1]) != -1 || c.X[isa.A2] != 7 || c.X[isa.A3] != ^uint32(0) || c.X[isa.A4] != 7 {
		t.Errorf("div-by-zero: %v %v %v %v", int32(c.X[isa.A1]), c.X[isa.A2], c.X[isa.A3], c.X[isa.A4])
	}
	if c.X[isa.A7] != 0x80000000 || c.X[isa.T0] != 0 {
		t.Errorf("overflow: 0x%x %d", c.X[isa.A7], c.X[isa.T0])
	}
}

func TestFloatArith(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: isa.A0, Imm: 0x8000},
		{Op: isa.OpFLW, Rd: 0, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpFLW, Rd: 1, Rs1: isa.A0, Imm: 4},
		{Op: isa.OpFADDS, Rd: 2, Rs1: 0, Rs2: 1},
		{Op: isa.OpFMULS, Rd: 3, Rs1: 0, Rs2: 1},
		{Op: isa.OpFSUBS, Rd: 4, Rs1: 0, Rs2: 1},
		{Op: isa.OpFDIVS, Rd: 5, Rs1: 0, Rs2: 1},
		{Op: isa.OpFSQRTS, Rd: 6, Rs1: 0},
		{Op: isa.OpFMADDS, Rd: 7, Rs1: 0, Rs2: 1, Rs3: 2},
		{Op: isa.OpFSW, Rs1: isa.A0, Rs2: 2, Imm: 8},
		{Op: isa.OpEBREAK},
	})
	c.Mem.StoreFloat32(0x8000, 9.0)
	c.Mem.StoreFloat32(0x8004, 2.0)
	c.Run(100)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	checks := []struct {
		f    isa.Reg
		want float32
	}{{2, 11}, {3, 18}, {4, 7}, {5, 4.5}, {6, 3}, {7, 29}}
	for _, ck := range checks {
		if got := c.FReg(ck.f); got != ck.want {
			t.Errorf("f%d = %v, want %v", ck.f, got, ck.want)
		}
	}
	if c.Mem.LoadFloat32(0x8008) != 11 {
		t.Error("fsw result wrong")
	}
}

func TestFloatCompareConvertMove(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: -3},
		{Op: isa.OpFCVTSW, Rd: 0, Rs1: isa.A0}, // f0 = -3.0
		{Op: isa.OpADDI, Rd: isa.A1, Rs1: isa.Zero, Imm: 5},
		{Op: isa.OpFCVTSWU, Rd: 1, Rs1: isa.A1},      // f1 = 5.0
		{Op: isa.OpFLTS, Rd: isa.A2, Rs1: 0, Rs2: 1}, // -3 < 5 -> 1
		{Op: isa.OpFLES, Rd: isa.A3, Rs1: 1, Rs2: 0}, // 5 <= -3 -> 0
		{Op: isa.OpFEQS, Rd: isa.A4, Rs1: 0, Rs2: 0}, // 1
		{Op: isa.OpFCVTWS, Rd: isa.A5, Rs1: 0},       // -3
		{Op: isa.OpFMVXW, Rd: isa.A6, Rs1: 1},        // bits of 5.0
		{Op: isa.OpFMVWX, Rd: 2, Rs1: isa.A6},        // f2 = 5.0
		{Op: isa.OpFSGNJNS, Rd: 3, Rs1: 1, Rs2: 1},   // f3 = -5.0
		{Op: isa.OpFSGNJXS, Rd: 4, Rs1: 3, Rs2: 3},   // f4 = +5.0
		{Op: isa.OpFMINS, Rd: 5, Rs1: 0, Rs2: 1},     // -3
		{Op: isa.OpFMAXS, Rd: 6, Rs1: 0, Rs2: 1},     // 5
		{Op: isa.OpEBREAK},
	})
	if c.X[isa.A2] != 1 || c.X[isa.A3] != 0 || c.X[isa.A4] != 1 {
		t.Errorf("fp compares: %d %d %d", c.X[isa.A2], c.X[isa.A3], c.X[isa.A4])
	}
	if int32(c.X[isa.A5]) != -3 {
		t.Errorf("fcvt.w.s: %d", int32(c.X[isa.A5]))
	}
	if c.X[isa.A6] != math.Float32bits(5.0) {
		t.Errorf("fmv.x.w: 0x%x", c.X[isa.A6])
	}
	if c.FReg(2) != 5.0 || c.FReg(3) != -5.0 || c.FReg(4) != 5.0 {
		t.Errorf("sign inject: %v %v %v", c.FReg(2), c.FReg(3), c.FReg(4))
	}
	if c.FReg(5) != -3 || c.FReg(6) != 5 {
		t.Errorf("min/max: %v %v", c.FReg(5), c.FReg(6))
	}
}

// TestFArithCanonicalNaN: every F arithmetic op writes the canonical
// NaN 0x7fc00000 when its result is NaN — whether an input carried a
// NaN payload or the op made a fresh NaN — while sign injection, moves
// and loads keep the payload bit-exactly.
func TestFArithCanonicalNaN(t *testing.T) {
	const (
		qnan = 0x7FC01234 // quiet NaN with a payload
		snan = 0x7F800001 // signaling NaN with a payload
		one  = 0x3F800000
		neg  = 0xBF800000 // -1
		inf  = 0x7F800000
		zero = 0x00000000
	)
	arith := []isa.Op{isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS, isa.OpFSQRTS,
		isa.OpFMADDS, isa.OpFMSUBS, isa.OpFNMSUBS, isa.OpFNMADDS}
	type regs struct{ a, b, c uint32 }
	cases := []struct {
		name string
		ops  []isa.Op
		in   regs
		want uint32
	}{
		{"quiet payload", arith, regs{qnan, one, one}, 0x7FC00000},
		{"signaling payload", arith, regs{snan, one, one}, 0x7FC00000},
		{"payload in rs2", []isa.Op{isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS,
			isa.OpFMADDS, isa.OpFMSUBS, isa.OpFNMSUBS, isa.OpFNMADDS}, regs{one, qnan, one}, 0x7FC00000},
		{"payload in rs3", []isa.Op{isa.OpFMADDS, isa.OpFMSUBS, isa.OpFNMSUBS, isa.OpFNMADDS},
			regs{one, one, qnan}, 0x7FC00000},
		{"inf - inf", []isa.Op{isa.OpFSUBS}, regs{inf, inf, 0}, 0x7FC00000},
		{"0 / 0", []isa.Op{isa.OpFDIVS}, regs{zero, zero, 0}, 0x7FC00000},
		{"sqrt(-1)", []isa.Op{isa.OpFSQRTS}, regs{neg, 0, 0}, 0x7FC00000},
		{"0 * inf + 1", []isa.Op{isa.OpFMADDS, isa.OpFMSUBS, isa.OpFNMSUBS, isa.OpFNMADDS},
			regs{zero, inf, one}, 0x7FC00000},
		{"fsgnj keeps payload", []isa.Op{isa.OpFSGNJS}, regs{qnan, one, 0}, qnan},
		{"fsgnjn keeps payload", []isa.Op{isa.OpFSGNJNS}, regs{qnan, neg, 0}, qnan},
		{"fsgnjx keeps payload", []isa.Op{isa.OpFSGNJXS}, regs{snan, one, 0}, snan},
	}
	for _, tc := range cases {
		for _, op := range tc.ops {
			c := load(t, []isa.Inst{{Op: op, Rd: 4, Rs1: 1, Rs2: 2, Rs3: 3}, {Op: isa.OpEBREAK}})
			c.F[1], c.F[2], c.F[3] = tc.in.a, tc.in.b, tc.in.c
			c.Run(10)
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if c.F[4] != tc.want {
				t.Errorf("%s: %v = 0x%08x, want 0x%08x", tc.name, op, c.F[4], tc.want)
			}
		}
	}

	// fmv.w.x and flw move a NaN payload unchanged.
	c := load(t, []isa.Inst{
		{Op: isa.OpLUI, Rd: isa.A0, Imm: 0x8000},
		{Op: isa.OpFLW, Rd: 1, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpLW, Rd: isa.A1, Rs1: isa.A0, Imm: 0},
		{Op: isa.OpFMVWX, Rd: 2, Rs1: isa.A1},
		{Op: isa.OpEBREAK},
	})
	c.Mem.StoreWord(0x8000, qnan)
	c.Run(10)
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if c.F[1] != qnan || c.F[2] != qnan {
		t.Errorf("flw/fmv.w.x changed a NaN payload: 0x%08x 0x%08x, want 0x%08x", c.F[1], c.F[2], uint32(qnan))
	}
}

func TestFClass(t *testing.T) {
	cases := []struct {
		bits uint32
		want uint32
	}{
		{math.Float32bits(float32(math.Inf(-1))), 1 << 0},
		{math.Float32bits(-1.5), 1 << 1},
		{0x80000001, 1 << 2}, // negative subnormal
		{0x80000000, 1 << 3}, // -0
		{0x00000000, 1 << 4}, // +0
		{0x00000001, 1 << 5}, // positive subnormal
		{math.Float32bits(1.5), 1 << 6},
		{math.Float32bits(float32(math.Inf(1))), 1 << 7},
		{0x7F800001, 1 << 8}, // signaling NaN
		{0x7FC00000, 1 << 9}, // quiet NaN
	}
	for _, ck := range cases {
		if got := fclass(ck.bits); got != ck.want {
			t.Errorf("fclass(0x%08x) = 0x%x, want 0x%x", ck.bits, got, ck.want)
		}
	}
}

func TestFMinMaxNaN(t *testing.T) {
	nan := float32(math.NaN())
	if fminmax(nan, 2, true) != 2 {
		t.Error("fmin(NaN, 2) should be 2")
	}
	if fminmax(2, nan, false) != 2 {
		t.Error("fmax(2, NaN) should be 2")
	}
	got := fminmax(nan, nan, true)
	if math.Float32bits(got) != 0x7FC00000 {
		t.Errorf("fmin(NaN,NaN) = 0x%x, want canonical NaN", math.Float32bits(got))
	}
	if fminmax(float32(math.Copysign(0, -1)), 0, true) != float32(math.Copysign(0, -1)) {
		t.Log("fmin(-0,+0) returns -0: ok")
	}
}

func TestCvtSaturation(t *testing.T) {
	if cvtWS(float32(math.NaN())) != math.MaxInt32 {
		t.Error("cvt.w.s(NaN) must saturate to MaxInt32")
	}
	if cvtWS(1e20) != math.MaxInt32 || cvtWS(-1e20) != math.MinInt32 {
		t.Error("cvt.w.s saturation failed")
	}
	if cvtWS(-2.9) != -2 {
		t.Error("cvt.w.s must truncate toward zero")
	}
	if cvtWUS(-1) != 0 || cvtWUS(1e20) != math.MaxUint32 {
		t.Error("cvt.wu.s saturation failed")
	}
}

func TestECallHaltsWithError(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.OpECALL}})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("ecall must halt with error")
	}
}

func TestIllegalInstructionHalts(t *testing.T) {
	m := mem.New()
	m.StoreWord(0x1000, 0xFFFFFFFF)
	c := New(m, 0x1000)
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("illegal instruction must halt with error")
	}
}

func TestMisalignedAccessHalts(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 2},
		{Op: isa.OpLW, Rd: isa.A1, Rs1: isa.A0, Imm: 0},
	})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("misaligned lw must halt with error")
	}
}

func TestSIMTLoopSequentialSemantics(t *testing.T) {
	// simt region: for (i = 0; i < 8; i += 2) { sum += i }
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.T0, Rs1: isa.Zero, Imm: 0},             // 0x1000 rc = 0
		{Op: isa.OpADDI, Rd: isa.T1, Rs1: isa.Zero, Imm: 2},             // 0x1004 step
		{Op: isa.OpADDI, Rd: isa.T2, Rs1: isa.Zero, Imm: 8},             // 0x1008 end
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0},             // 0x100c sum = 0
		{Op: isa.OpSIMTS, Rd: isa.T0, Rs1: isa.T1, Rs2: isa.T2, Imm: 1}, // 0x1010
		{Op: isa.OpADD, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.T0},           // 0x1014 body
		{Op: isa.OpSIMTE, Rd: isa.T0, Rs1: isa.T2, Imm: -8},             // 0x1018
		{Op: isa.OpEBREAK},
	})
	// iterations with rc = 0, 2, 4, 6: sum = 12
	if c.X[isa.A0] != 12 {
		t.Errorf("simt loop sum = %d, want 12", c.X[isa.A0])
	}
	if c.X[isa.T0] != 8 {
		t.Errorf("rc after loop = %d, want 8", c.X[isa.T0])
	}
}

func TestSIMTEWithoutSBails(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpSIMTE, Rd: isa.T0, Rs1: isa.T2, Imm: -8},
	})
	c.Run(10)
	if !c.Halted || c.Err == nil {
		t.Error("simt.e without matching simt.s must halt with error")
	}
}

func TestStepOnHaltedCPUIsNoop(t *testing.T) {
	c := run(t, []isa.Inst{{Op: isa.OpEBREAK}})
	pc := c.PC
	n := c.Instret
	c.Step()
	if c.PC != pc || c.Instret != n {
		t.Error("Step on halted CPU must not change state")
	}
}

func TestReset(t *testing.T) {
	c := run(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 9},
		{Op: isa.OpEBREAK},
	})
	c.Reset(0x1000)
	if c.Halted || c.X[isa.A0] != 0 || c.PC != 0x1000 || c.Instret != 0 {
		t.Error("Reset did not restore initial state")
	}
}

func TestExecRecord(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpADDI, Rd: isa.A0, Rs1: isa.Zero, Imm: 0x700},
		{Op: isa.OpSW, Rs1: isa.A0, Rs2: isa.Zero, Imm: 4},
		{Op: isa.OpBEQ, Rs1: isa.Zero, Rs2: isa.Zero, Imm: 8},
		{Op: isa.OpEBREAK},
		{Op: isa.OpEBREAK},
	})
	e1 := c.Step()
	if e1.PC != 0x1000 || e1.NextPC != 0x1004 || e1.Taken {
		t.Errorf("addi exec record: %+v", e1)
	}
	e2 := c.Step()
	if e2.MemAddr != 0x704 {
		t.Errorf("sw MemAddr = 0x%x", e2.MemAddr)
	}
	e3 := c.Step()
	if !e3.Taken || e3.NextPC != 0x1010 {
		t.Errorf("beq exec record: %+v", e3)
	}
}

// Property test: MULH consistency — (a*b) as 64-bit == MUL | MULH<<32.
func TestMulhConsistencyQuick(t *testing.T) {
	f := func(a, b int32) bool {
		lo := uint32(a) * uint32(b)
		hi := uint32(uint64(int64(a)*int64(b)) >> 32)
		full := int64(a) * int64(b)
		return uint32(full) == lo && uint32(uint64(full)>>32) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property test: div/rem invariant a == div*b + rem for all non-zero b
// without overflow.
func TestDivRemInvariantQuick(t *testing.T) {
	f := func(a, b int32) bool {
		if b == 0 || (a == math.MinInt32 && b == -1) {
			return true
		}
		d := int32(divS(uint32(a), uint32(b)))
		r := int32(remS(uint32(a), uint32(b)))
		return a == d*b+r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFMA32Ties pins single rounding on the cases a float64
// intermediate double-rounds: the exact product sits on a float32
// halfway point and a tiny addend, lost when the sum rounds to float64,
// decides the direction.
func TestFMA32Ties(t *testing.T) {
	const (
		a  = 0x3f800800 // 1 + 2^-12
		b3 = 0x3f801800 // 1 + 3*2^-12
	)
	tiny := math.Float32frombits(0x17800000) // 2^-80
	cases := []struct {
		a, b uint32
		c    float32
		want uint32
	}{
		{a, a, tiny, 0x3f801001},   // 1 + 2^-11 + 2^-24 + 2^-80: past the tie, round up
		{a, a, -tiny, 0x3f801000},  // short of the tie, round down
		{a, b3, -tiny, 0x3f802001}, // tie would round to even (up); exact is below it
		{a, b3, tiny, 0x3f802002},  // past the tie, round up
		{a, a, 0, 0x3f801000},      // an exact tie rounds to even
	}
	for _, tc := range cases {
		got := math.Float32bits(FMA32(math.Float32frombits(tc.a), math.Float32frombits(tc.b), tc.c))
		if got != tc.want {
			t.Errorf("FMA32(%#x, %#x, %g) = %#x, want %#x", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

// bigFMA is the reference: a*b+c computed exactly in math/big and
// rounded once to float32 (to nearest, ties to even).
func bigFMA(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(1024).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetFloat64(float64(c)))
	f, _ := x.Float32()
	return f
}

// TestFusedMultiplyAddMatchesBig cross-checks fmadd/fmsub/fnmsub/fnmadd
// on the ISS against the math/big reference: seeded random operands,
// half of them near float32 halfway points where double rounding bites.
func TestFusedMultiplyAddMatchesBig(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.OpFMADDS, Rd: 4, Rs1: 1, Rs2: 2, Rs3: 3},
		{Op: isa.OpFMSUBS, Rd: 5, Rs1: 1, Rs2: 2, Rs3: 3},
		{Op: isa.OpFNMSUBS, Rd: 6, Rs1: 1, Rs2: 2, Rs3: 3},
		{Op: isa.OpFNMADDS, Rd: 7, Rs1: 1, Rs2: 2, Rs3: 3},
		{Op: isa.OpEBREAK},
	})
	entry := c.PC
	rng := rand.New(rand.NewSource(1))
	sign := func() float32 { return float32(1 - 2*rng.Intn(2)) }
	scale := func(lo, hi int) float32 { return float32(math.Ldexp(1, lo+rng.Intn(hi-lo+1))) }
	mismatches := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		var a, b, z float32
		if i%2 == 0 {
			// (1 + i*2^-12)(1 + j*2^-12) has its 2^-24 bit set whenever
			// i*j is odd: a float32 halfway point for the addend to tip.
			a = sign() * (1 + float32(1+rng.Intn(4095))/4096) * scale(-20, 20)
			b = sign() * (1 + float32(1+rng.Intn(4095))/4096) * scale(-20, 20)
			z = sign() * (1 + float32(rng.Intn(1<<23))/(1<<23)) * a * b * scale(-100, -30)
		} else {
			a = sign() * (1 + rng.Float32()) * scale(-30, 30)
			b = sign() * (1 + rng.Float32()) * scale(-30, 30)
			z = sign() * (1 + rng.Float32()) * scale(-60, 60)
		}
		want := [4]float32{bigFMA(a, b, z), bigFMA(a, b, -z), bigFMA(-a, b, z), bigFMA(-a, b, -z)}
		c.PC, c.Halted = entry, false
		c.F[1], c.F[2], c.F[3] = math.Float32bits(a), math.Float32bits(b), math.Float32bits(z)
		c.Run(10)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		for k, w := range want {
			if got := c.F[4+k]; got != math.Float32bits(w) && mismatches < 10 {
				mismatches++
				t.Errorf("op %d: a=%#x b=%#x c=%#x: got %#x, want %#x", k,
					math.Float32bits(a), math.Float32bits(b), math.Float32bits(z), got, math.Float32bits(w))
			}
		}
	}
}
