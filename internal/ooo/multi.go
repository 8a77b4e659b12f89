package ooo

import (
	"context"

	"diag/internal/cache"
	"diag/internal/harts"
	"diag/internal/mem"
)

// Machine is the complete baseline: Cores out-of-order cores above a
// shared L2 and DRAM. Multicore runs use the same convention as the DiAG
// machine: each core's thread id is in tp (x4) and the thread count in
// gp (x3). The multicore shell (hierarchy, sequential and sharded
// execution, pause/resume) is the shared harts.Engine; Machine adds the
// configuration and the typed Stats.
type Machine struct {
	*harts.Engine[*Core]
	cfg Config
}

// shell is the engine's view of cfg: one hart per core above the
// shared L2 (absent when L2Size <= 0 after defaults) and the DRAM.
func (c Config) shell() harts.Spec {
	return harts.Spec{
		Noun: "core", Harts: c.Cores, DRAMLatency: c.DRAMLatency,
		L2: cache.Config{Name: "L2", Size: c.L2Size, LineSize: 64, Assoc: 8, Latency: 12},
	}
}

// coresAt returns the engine's constructor for cfg's cores, starting at
// entry.
func (c Config) coresAt(entry uint32) func(int, *mem.Memory, cache.Port) *Core {
	return func(i int, m *mem.Memory, shared cache.Port) *Core {
		core := newCore(c, m, entry, shared)
		core.unit = int32(i)
		return core
	}
}

// NewMachine builds and loads a machine for img.
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
	return &Machine{Engine: harts.New(cfg.shell(), m, cfg.coresAt(entry)), cfg: cfg}, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.Harts()[i] }

// SetBudgets overrides the MaxInstructions and MaxCycles budgets of the
// machine and every core (0 keeps the current value); used when a
// restored snapshot's run should carry different budgets than the run
// that produced it.
func (m *Machine) SetBudgets(maxInst uint64, maxCycles int64) {
	if maxInst > 0 {
		m.cfg.MaxInstructions = maxInst
		for _, c := range m.Harts() {
			c.cfg.MaxInstructions = maxInst
		}
	}
	if maxCycles > 0 {
		m.cfg.MaxCycles = maxCycles
		for _, c := range m.Harts() {
			c.cfg.MaxCycles = maxCycles
		}
	}
}

// Stats aggregates the machine's statistics on demand: the merge over
// all cores plus the shared L2 and DRAM counters. Valid at any point —
// after Run, at a RunUntil pause, or mid-construction (all zeros).
func (m *Machine) Stats() Stats {
	var s Stats
	for _, c := range m.Harts() {
		s.Merge(c.Stats())
	}
	s.L2.Add(m.L2Stats())
	s.DRAMAccesses += m.DRAMAccesses()
	return s
}

// RunImage builds a machine, runs it, and returns stats and final memory.
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
