package diag

import (
	"context"

	"diag/internal/cache"
	"diag/internal/harts"
	"diag/internal/mem"
)

// Machine is a complete DiAG processor: one or more dataflow rings above
// a shared L2 and DRAM (§5.1). With Rings == 1 it runs a single thread;
// with Rings > 1 it exploits spatial parallelism, one thread per ring
// (§4.4: "multiple rows of processing clusters", used by the paper's
// 16-by-2 multi-thread configuration). The multi-ring shell (hierarchy,
// sequential and sharded execution, pause/resume) is the shared
// harts.Engine; Machine adds the configuration and the typed Stats.
type Machine struct {
	*harts.Engine[*Ring]
	cfg Config
}

// shell is the engine's view of cfg: one hart per ring above the
// shared L2 (absent with NoL2; a zero size has already been defaulted
// to 4 MiB) and the DRAM.
func (c Config) shell() harts.Spec {
	return harts.Spec{
		Noun: "ring", Harts: c.Rings, DRAMLatency: c.DRAMLatency,
		L2: cache.Config{Name: "L2", Size: c.L2Size, LineSize: 64, Assoc: 8, Latency: 12},
	}
}

// ringsAt returns the engine's constructor for cfg's rings, starting at
// entry.
func (c Config) ringsAt(entry uint32) func(int, *mem.Memory, cache.Port) *Ring {
	return func(i int, m *mem.Memory, shared cache.Port) *Ring {
		r := newRing(c, m, entry, shared)
		r.unit = int32(i)
		return r
	}
}

// NewMachine builds a machine for the image. Multi-ring machines place
// the thread id in register tp (x4) and the thread count in gp (x3) of
// each ring's CPU before execution — the convention all parallel
// workloads in this repository follow.
func NewMachine(cfg Config, img *mem.Image) (*Machine, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		return nil, err
	}
	return &Machine{Engine: harts.New(cfg.shell(), m, cfg.ringsAt(entry)), cfg: cfg}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Ring returns ring i (for single-thread runs, Ring(0) is the whole
// machine).
func (m *Machine) Ring(i int) *Ring { return m.Harts()[i] }

// SetBudgets overrides the MaxInstructions and MaxCycles budgets of the
// machine and every ring (0 keeps the current value); used when a
// restored snapshot's run should carry different budgets than the run
// that produced it.
func (m *Machine) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		m.cfg.MaxInstructions = maxInst
		for _, r := range m.Harts() {
			r.cfg.MaxInstructions = maxInst
		}
	}
	if maxCycles > 0 {
		m.cfg.MaxCycles = maxCycles
		for _, r := range m.Harts() {
			r.cfg.MaxCycles = maxCycles
		}
	}
}

// Stats aggregates the machine's statistics on demand: the merge over
// all rings plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for _, r := range m.Harts() {
		s.Merge(r.Stats())
	}
	s.L2.Add(m.L2Stats())
	s.DRAMAccesses += m.DRAMAccesses()
	return s
}

// RunImage is the one-call convenience: build a machine, run it, return
// the stats and final memory.
func RunImage(cfg Config, img *mem.Image) (Stats, *mem.Memory, error) {
	return RunImageContext(context.Background(), cfg, img)
}

// RunImageContext is RunImage with cancellation.
func RunImageContext(ctx context.Context, cfg Config, img *mem.Image) (Stats, *mem.Memory, error) {
	mach, err := NewMachine(cfg, img)
	if err != nil {
		return Stats{}, nil, err
	}
	if err := mach.RunContext(ctx); err != nil {
		return Stats{}, nil, err
	}
	return mach.Stats(), mach.Mem(), nil
}
