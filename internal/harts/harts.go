// Package harts is the multi-hart shell shared by the two timing
// machines: the DiAG processor (internal/diag, one hart per ring, §4.4's
// rows of clusters) and the out-of-order baseline (internal/ooo, one
// hart per core, §7.1's multicore comparator). Both are N independent
// harts above a partitioned L2 and a fixed-latency DRAM. The Engine
// builds that hierarchy, runs the harts sequentially or sharded across
// host goroutines, pauses and resumes them, sums the shared-level
// counters, and captures and restores the machine-level half of a
// snapshot. The machines add their configuration, their typed
// statistics and their harts' own state.
package harts

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"diag/internal/cache"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
)

// Hart is one hardware thread as the engine sees it: a DiAG ring or an
// OoO core.
type Hart interface {
	// RunUntil runs the hart until it halts or fails or, when limit > 0,
	// until its retired count reaches limit (paused == true).
	RunUntil(ctx context.Context, limit uint64) (paused bool, err error)
	// CPU is the hart's architectural state.
	CPU() *iss.CPU
	// Retired is the hart's retired-instruction count.
	Retired() uint64
	// Observer and SetObserver get and set the hart's cycle-level event
	// observer (nil = off).
	Observer() obsv.Observer
	SetObserver(o obsv.Observer)
	// Fresh reports whether the hart has never stepped and carries no
	// PreStep hook.
	Fresh() bool
}

// Spec is what distinguishes one machine's shell from the other's. It
// is data: the engine has no per-machine branches.
type Spec struct {
	Noun        string       // names a hart in errors: "ring" or "core"
	Harts       int          // hart count, >= 1
	L2          cache.Config // the whole shared L2; Size <= 0 builds none
	DRAMLatency int
}

// Engine runs the harts of one machine over its memory.
//
// Harts execute functionally one after another against the shared
// memory. That is sound because parallel workloads in this repository
// are data-parallel with disjoint write sets (the OpenMP-loop shape of
// the Rodinia kernels the paper evaluates), partitioned by the hart id
// in tp and the hart count in gp. Timing is computed independently per
// hart, so a machine's cycle count is its slowest hart's.
type Engine[H Hart] struct {
	noun  string
	mem   *mem.Memory
	harts []H
	l2s   []*cache.Cache // one private timing view per hart; none without an L2
	drams []*cache.DRAM  // one access counter per hart

	// next is the first hart that has not yet run to completion: a
	// paused machine resumes at the hart the pause interrupted.
	next int

	// shards caps how many harts RunUntil executes concurrently; <= 1
	// keeps the sequential engine. A runtime knob, not part of any
	// Config or snapshot: sharding changes no observable output.
	shards int
}

// New builds spec.Harts harts above m. newHart builds hart i over
// memory m with shared as its view of the hierarchy: its L2 partition,
// or the DRAM when there is no L2. New then boots each hart with the
// multi-thread convention: hart id in tp (x4), hart count in gp (x3).
func New[H Hart](spec Spec, m *mem.Memory, newHart func(i int, m *mem.Memory, shared cache.Port) H) *Engine[H] {
	e := &Engine[H]{noun: spec.Noun, mem: m}
	l2 := spec.L2
	if spec.Harts > 1 && l2.Size > 0 {
		// Harts run on independent timelines, so each gets a private
		// timing view of its share of the L2 capacity. Its contents are
		// functionally irrelevant: data always lives in mem.Memory.
		l2.Size = cache.RoundSize(max(l2.Size/spec.Harts, 64<<10), l2.LineSize, l2.Assoc)
	}
	for i := 0; i < spec.Harts; i++ {
		// The DRAM models a fixed latency with no contention, so a
		// per-hart access counter is timing-identical to a shared one
		// and keeps sharded harts from racing on it.
		dram := &cache.DRAM{Latency: spec.DRAMLatency}
		e.drams = append(e.drams, dram)
		var shared cache.Port = dram
		if l2.Size > 0 {
			c := cache.New(l2, dram)
			e.l2s = append(e.l2s, c)
			shared = c
		}
		h := newHart(i, m, shared)
		h.CPU().X[isa.TP] = uint32(i)
		h.CPU().X[isa.GP] = uint32(spec.Harts)
		e.harts = append(e.harts, h)
	}
	return e
}

// Mem returns the machine's memory (inspectable after a run).
func (e *Engine[H]) Mem() *mem.Memory { return e.mem }

// Harts returns the harts in index order.
func (e *Engine[H]) Harts() []H { return e.harts }

// SetObserver attaches o to every hart's cycle-level event stream
// (internal/obsv); events carry the hart index in their Unit field.
// Must be called before Run; a nil o turns observability off.
func (e *Engine[H]) SetObserver(o obsv.Observer) {
	for _, h := range e.harts {
		h.SetObserver(o)
	}
}

// SetHook installs hook as every hart's per-instruction CPU hook
// (iss.CPU.Hook), so one hook sees the whole machine's instruction
// stream in hart order. A hooked machine always runs sequentially.
func (e *Engine[H]) SetHook(hook func(iss.Exec)) {
	for _, h := range e.harts {
		h.CPU().Hook = hook
	}
}

// SetShards sets how many harts RunUntil may execute concurrently on
// host goroutines; n <= 1 (the default) keeps the sequential engine.
// Sharding is an execution strategy, not an architectural knob: every
// observable output (statistics, cycle counts, final memory, observer
// event streams, CPU hook streams, error attribution) is byte-identical
// at any shard count and any GOMAXPROCS. Must be set before Run.
func (e *Engine[H]) SetShards(n int) { e.shards = n }

// Run executes every hart to completion.
func (e *Engine[H]) Run() error { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation and budget enforcement: each hart
// polls ctx while it executes, so cancelling aborts the machine within
// a few thousand simulated instructions.
func (e *Engine[H]) RunContext(ctx context.Context) error {
	_, err := e.RunUntil(ctx, 0)
	return err
}

// RunUntil is RunContext with a pause point: when limit > 0 the machine
// additionally stops, returning (true, nil) with all state intact, once
// the total retired-instruction count across harts reaches limit. A
// paused machine continues exactly where it stopped on the next
// RunUntil or RunContext call, producing the same cycles, statistics,
// and observer events as an unpaused run.
func (e *Engine[H]) RunUntil(ctx context.Context, limit uint64) (paused bool, err error) {
	if e.canShard(limit) {
		return false, e.runSharded(ctx)
	}
	for e.next < len(e.harts) {
		h := e.harts[e.next]
		hartLimit := uint64(0)
		if limit > 0 {
			total := e.totalRetired()
			if total >= limit {
				return true, nil
			}
			hartLimit = h.Retired() + (limit - total)
		}
		hartPaused, err := h.RunUntil(ctx, hartLimit)
		if err != nil {
			return false, e.hartErr(e.next, err)
		}
		if hartPaused {
			return true, nil
		}
		e.next++
	}
	return false, nil
}

// hartErr attributes a failure to hart i. Cancellation is not the
// hart's fault and stays unadorned.
func (e *Engine[H]) hartErr(i int, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%s %d: %w", e.noun, i, err)
}

// canShard reports whether this RunUntil call may take the concurrent
// path: a fresh, full (non-pausing) run of a multi-hart machine whose
// harts carry no hooks. Paused or resumed machines, instruction-limit
// pauses, fault-injection PreStep hooks (which may mutate shared memory
// at arbitrary points) and CPU hooks (one hook sees every hart, so it
// must see them in order) all fall back to the sequential engine.
func (e *Engine[H]) canShard(limit uint64) bool {
	if limit != 0 || e.shards <= 1 || len(e.harts) <= 1 || e.next != 0 {
		return false
	}
	for _, h := range e.harts {
		if !h.Fresh() || h.CPU().Hook != nil {
			return false
		}
	}
	return true
}

// runSharded executes every hart concurrently, at most e.shards in
// flight, and merges the results so the outcome is indistinguishable
// from the sequential engine at any GOMAXPROCS.
//
// Sequentially, hart i runs to completion against the memory as left
// by harts 0..i-1. The multi-hart contract (see Engine) is that
// parallel workloads have disjoint write sets, so no hart's execution
// depends on another hart's writes: each hart computes the identical
// instruction stream, timing and statistics when run against the
// pre-run memory instead. Only the merged final memory must reflect
// every hart's writes in hart order:
//
//   - hart 0 runs directly on the shared memory (its sequential view IS
//     the pre-run memory), so its writes land natively and first;
//   - harts 1..N-1 run on private clones of the pre-run memory, and
//     their write-diffs are committed back in hart order after all
//     harts have joined (mem.ApplyDiff iterates deterministically);
//   - observer streams: hart 0 emits live (it is the only goroutine
//     touching the real observer), later harts record into private
//     buffers replayed in hart order after the join;
//   - errors: the lowest failing hart wins, as in the sequential
//     engine, which would have stopped there; diffs commit only up to
//     and including that hart, and next lands on it.
//
// The one caveat is ApplyDiff's: it cannot see a clone's write of the
// value a byte already held. That is unobservable precisely because the
// contract gives harts disjoint write sets.
func (e *Engine[H]) runSharded(ctx context.Context) error {
	pre := e.mem.Clone()
	n := len(e.harts)
	clones := make([]*mem.Memory, n)
	bufs := make([]*obsv.Buffer, n)
	obs := make([]obsv.Observer, n)
	errs := make([]error, n)
	for i := 1; i < n; i++ {
		h := e.harts[i]
		clones[i] = pre.Clone()
		h.CPU().Mem = clones[i]
		if o := h.Observer(); o != nil {
			obs[i] = o
			bufs[i] = &obsv.Buffer{}
			h.SetObserver(bufs[i])
		}
	}
	sem := make(chan struct{}, e.shards)
	var wg sync.WaitGroup
	for i, h := range e.harts {
		wg.Add(1)
		go func(i int, h H) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = h.RunUntil(ctx, 0)
		}(i, h)
	}
	wg.Wait()

	failed := -1
	for i, err := range errs {
		if err != nil {
			failed = i
			break
		}
	}
	last := n - 1
	if failed >= 0 {
		last = failed // the sequential engine never ran later harts
	}
	for i := 1; i <= last; i++ {
		e.mem.ApplyDiff(pre, clones[i])
		if bufs[i] != nil {
			bufs[i].Replay(obs[i])
		}
	}
	// Repoint every hart at the shared memory and its real observer,
	// committed or not: the machine must stay inspectable (and
	// re-runnable through the sequential path) after a failure.
	for i := 1; i < n; i++ {
		e.harts[i].CPU().Mem = e.mem
		if obs[i] != nil {
			e.harts[i].SetObserver(obs[i])
		}
	}
	if failed >= 0 {
		e.next = failed
		return e.hartErr(failed, errs[failed])
	}
	e.next = n
	return nil
}

func (e *Engine[H]) totalRetired() uint64 {
	var n uint64
	for _, h := range e.harts {
		n += h.Retired()
	}
	return n
}

// L2Stats sums the L2 partitions' counters (zero without an L2).
func (e *Engine[H]) L2Stats() cache.Stats {
	var s cache.Stats
	for _, c := range e.l2s {
		s.Add(c.Stats)
	}
	return s
}

// DRAMAccesses sums the per-hart DRAM access counters.
func (e *Engine[H]) DRAMAccesses() uint64 {
	var n uint64
	for _, d := range e.drams {
		n += d.Accesses
	}
	return n
}

// State is the machine-level half of a snapshot: everything outside
// the harts. Each machine's state adds its configuration and its
// harts' own state.
type State struct {
	Mem          mem.State
	L2s          []cache.State // one per hart, or none without an L2
	DRAMAccesses uint64        // total over the per-hart counters
	Next         int           // first hart not yet run to completion
}

// State captures the machine-level state. The machine must be
// quiescent (not running).
func (e *Engine[H]) State() State {
	st := State{
		Mem:          e.mem.State(),
		L2s:          make([]cache.State, len(e.l2s)),
		DRAMAccesses: e.DRAMAccesses(),
		Next:         e.next,
	}
	for i, c := range e.l2s {
		st.L2s[i] = c.State()
	}
	return st
}

// FromState rebuilds an engine from st: New over a memory restored from
// st.Mem, then the L2 partitions, the DRAM count and the next-hart
// index. The caller restores each hart's own state.
func FromState[H Hart](spec Spec, st *State, newHart func(i int, m *mem.Memory, shared cache.Port) H) (*Engine[H], error) {
	if st.Next < 0 || st.Next > spec.Harts {
		return nil, fmt.Errorf("state next-%s %d out of range (%d %ss)", spec.Noun, st.Next, spec.Harts, spec.Noun)
	}
	e := New(spec, mem.NewFromState(&st.Mem), newHart)
	if len(st.L2s) != len(e.l2s) {
		return nil, fmt.Errorf("state has %d L2 partitions, config needs %d", len(st.L2s), len(e.l2s))
	}
	for i, c := range e.l2s {
		if err := c.SetState(&st.L2s[i]); err != nil {
			return nil, err
		}
	}
	// The per-hart DRAM split is host-side (DRAMAccesses sums it); the
	// serialized total restores into the first counter.
	e.drams[0].Accesses = st.DRAMAccesses
	e.next = st.Next
	return e, nil
}
