package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"diag"
	idiag "diag/internal/diag"
	"diag/internal/exp"
	"diag/internal/explore"
	"diag/internal/mem"
	"diag/internal/power"
	"diag/internal/workloads"
)

// explore-short: diag.Explore over PaperSpace at scale 1 on one
// memory-class and one compute-class Rodinia kernel per batch. A cycle
// of three batches walks a seeded permutation of both pools, so every
// seed's cycle evaluates the same (workload, candidate) multiset in a
// seed-dependent order and pairing. The window repeats that cycle,
// unchanged, as whole cycles.
var (
	exploreMemory  = []string{"bfs", "pathfinder", "cfd"}
	exploreCompute = []string{"hotspot", "lud", "srad"}
)

// exploreSpace is PaperSpace, or a four-candidate space for the tiny
// self-test size.
func exploreSpace(tiny bool) diag.Space {
	if tiny {
		return diag.Space{Name: "tiny", Clusters: []int{2, 4}, L2: diag.SpaceMemLevel{Sizes: []int{0, 4 << 20}}}
	}
	return diag.PaperSpace()
}

// explorePairs returns one cycle's batches.
func explorePairs(rng *rand.Rand) [][]string {
	pm, pc := rng.Perm(len(exploreMemory)), rng.Perm(len(exploreCompute))
	out := make([][]string, len(pm))
	for i := range pm {
		out[i] = []string{exploreMemory[pm[i]], exploreCompute[pc[i]]}
	}
	return out
}

// exploreRef is the set-up product: for every pool kernel and ring
// count the space uses, the retired-instruction count of one run. A
// program's retired count does not depend on the DiAG configuration, so
// it scores sim_mips and checks every frontier point.
type exploreRef map[string]uint64

func refKey(w string, rings int) string { return fmt.Sprintf("%s/%d", w, rings) }

func exploreSetup(space diag.Space) (exploreRef, error) {
	all := append(append([]string(nil), exploreMemory...), exploreCompute...)
	if _, err := explore.NewPlan(space, all); err != nil {
		return nil, err
	}
	ref := make(exploreRef)
	for _, name := range all {
		w, _ := workloads.ByName(name)
		for _, rings := range []int{1, 2} {
			img, err := w.Build(workloads.Params{Scale: 1, Threads: rings})
			if err != nil {
				return nil, err
			}
			cfg := diag.F4C2()
			if rings > 1 {
				cfg = diag.MultiRing(cfg, rings, 2)
			}
			res, err := diag.DiAG(cfg).Run(img)
			if err != nil {
				return nil, fmt.Errorf("reference run %s: %w", name, err)
			}
			if err := w.Check(res.Mem, workloads.Params{Scale: 1, Threads: rings}); err != nil {
				return nil, fmt.Errorf("reference run %s: %w", name, err)
			}
			ref[refKey(name, rings)] = res.Retired
		}
	}
	return ref, nil
}

// diagImage is a built image with the parameters it was built for.
type diagImage struct {
	img *mem.Image
	p   workloads.Params
}

// exploreBatch is one closed batch's outcome.
type exploreBatch struct {
	evals   int
	retired uint64
	lat     []float64 // per-evaluation ms
	done    []float64 // completion times, seconds after since
	since   time.Time
}

// runExploreBatch calls diag.Explore on one pair and checks the report:
// no failed evaluation, every frontier point's retired count equal to
// the reference. The frontier CSV of cycle 0 feeds the sim_digest.
func runExploreBatch(ctx context.Context, e *env, space diag.Space, plan *explore.Plan,
	pair []string, ref exploreRef, digest bool, since time.Time) exploreBatch {
	rings := make(map[string]int, len(plan.Candidates))
	for _, c := range plan.Candidates {
		rings[c.Config.Name] = max(c.Config.Rings, 1)
	}
	b := exploreBatch{since: since}
	rep, err := diag.Explore(ctx, space, diag.ExploreOptions{
		Workloads: pair, Scale: 1, Workers: e.batch,
		OnProgress: func(p diag.SweepProgress) {
			b.evals++
			b.lat = append(b.lat, ms(p.Elapsed))
			b.done = append(b.done, time.Since(since).Seconds())
			w, cand, _ := strings.Cut(p.Name, "/")
			b.retired += ref[refKey(w, rings[cand])]
		},
	})
	if err != nil {
		e.ops(max(b.evals, 1), max(b.evals, 1), fmt.Errorf("explore %v: %w", pair, err))
		return b
	}
	failed := 0
	var firstErr error
	for _, f := range rep.Frontiers {
		failed += f.Failed
		if f.Failed > 0 && firstErr == nil {
			firstErr = fmt.Errorf("explore %s: %d evaluations failed", f.Workload, f.Failed)
		}
		for i, pt := range f.Points {
			want := ref[refKey(f.Workload, rings[pt.Name])]
			if i == 0 && e.corruptOnce() {
				pt.Retired++
			}
			if pt.Retired != want {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("explore %s/%s: retired %d, want %d", f.Workload, pt.Name, pt.Retired, want)
				}
			}
		}
		if len(f.Points) == 0 {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("explore %s: empty frontier", f.Workload)
			}
		}
	}
	e.ops(b.evals, min(failed, b.evals), firstErr)
	if digest {
		var csv bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			e.op(err)
		}
		e.addDigest(strings.Join(pair, ","), csv.String())
	}
	return b
}

func runExplore(e *env) error {
	ctx := context.Background()
	space := exploreSpace(e.opt.tiny)
	var ref exploreRef
	setup, err := e.timeSetup(func() error {
		var err error
		ref, err = exploreSetup(space)
		return err
	})
	if err != nil {
		return err
	}
	plan, err := explore.NewPlan(space, exploreMemory[:1])
	if err != nil {
		return err
	}
	pairs := explorePairs(rand.New(rand.NewSource(e.opt.seed)))
	var (
		cycles []exploreCycle
		lat    []float64
	)
	start := time.Now()
	for cycle := 0; cycle == 0 || !e.deadline(start, cycles[cycle-1].secs); cycle++ {
		var c exploreCycle
		clock := clockUnit()
		for _, pair := range pairs {
			b := runExploreBatch(ctx, e, space, plan, pair, ref, cycle == 0, clock.t0)
			c.ops += b.evals
			c.retired += float64(b.retired)
			c.done = append(c.done, b.done...)
			c.lat = append(c.lat, b.lat...)
		}
		clock.stop(&c.unit)
		for _, l := range c.lat {
			lat = append(lat, l*(1-c.stolen))
		}
		cycles = append(cycles, c)
	}
	u := medianCycle(cycles, exploreSegments)
	var wall, stolen []float64
	for _, c := range cycles {
		wall = append(wall, float64(c.ops)/c.secs)
		stolen = append(stolen, c.stolen)
	}
	e.note("cycles: %d; operations/s per cycle %s; per wall second %s; stolen share %s; median-segment cycle %.4g net s",
		len(cycles), fmtFloats(cycleRates(cycles)), fmtFloats(wall), fmtFloats(stolen), u.secs)
	e.setEndToEnd(setup, []unit{u}, quantiles(lat), quantiles(lat))
	return nil
}

// exploreCycle is one measured cycle: a unit with the completion time
// of each of its evaluations, in seconds since the cycle began, and
// their latencies (ms).
type exploreCycle struct {
	unit
	done []float64
	lat  []float64
}

// exploreSegments is how many segments medianCycle cuts a cycle into:
// about half a second each at PaperSpace size.
const exploreSegments = 24

// medianCycle returns the representative cycle of cycles that all do
// the same work in the same order, in net seconds (unit.net). It cuts
// each cycle into segments at the same evaluation counts and sums, over
// the segments, the median net duration across cycles. From three
// cycles on, a burst of contention on the shared host then lengthens
// one segment of one cycle, which the median drops, rather than a whole
// cycle, which the median of cycle times would keep once every cycle
// has had one.
func medianCycle(cycles []exploreCycle, segments int) unit {
	u := unit{ops: cycles[0].ops, retired: cycles[0].retired}
	n := len(cycles[0].done)
	for _, c := range cycles {
		n = min(n, len(c.done))
	}
	segments = max(min(segments, n), 1)
	for _, c := range cycles {
		sort.Float64s(c.done)
	}
	prev := make([]float64, len(cycles))
	for s := 1; s <= segments; s++ {
		var d []float64
		for i, c := range cycles {
			end := c.secs
			if s < segments {
				end = c.done[s*n/segments-1]
			}
			d = append(d, (end-prev[i])*(1-c.stolen))
			prev[i] = end
		}
		u.secs += percentile(d, 0.5)
	}
	return u
}

// cycleRates returns each cycle's operations per net second.
func cycleRates(cycles []exploreCycle) []float64 {
	var r []float64
	for _, c := range cycles {
		r = append(r, float64(c.ops)/c.net())
	}
	return r
}

// tracedExplore runs the first batch through diag.Explore untraced,
// then the same batch decomposed into its layer calls — plan, image
// builds, and per candidate NewMachine, the run, the check and the
// energy model on the exp engine — with spans around each, and reports
// the difference as the tracing overhead. cache.New is then timed once
// per distinct cache geometry of the batch, apart from the traced
// batch, since every NewMachine already builds its caches.
func tracedExplore(e *env) error {
	ctx := context.Background()
	t := e.tr
	space := exploreSpace(e.opt.tiny)
	ref, err := exploreSetup(space)
	if err != nil {
		return err
	}
	pair := explorePairs(rand.New(rand.NewSource(e.opt.seed)))[0]
	plan, err := explore.NewPlan(space, pair)
	if err != nil {
		return err
	}
	untraced := warmTime(func() { runExploreBatch(ctx, e, space, plan, pair, ref, true, time.Now()) })

	t.startUnit()
	t0 := time.Now()
	root := t.begin("bench.batch", 0, strings.Join(pair, ","))
	if err := t.timed("explore.plan", root.id(), "", func() (uint64, error) {
		var err error
		plan, err = explore.NewPlan(space, pair)
		return 0, err
	}); err != nil {
		return err
	}
	var jobs []exp.Job
	for _, w := range plan.Workloads {
		w := w
		imgs := make(map[int]*diagImage)
		for _, rings := range []int{1, 2} {
			p := workloads.Params{Scale: 1, Threads: rings}
			img, err := tracedBuild(t, root.id(), w, p)
			if err != nil {
				return err
			}
			imgs[rings] = &diagImage{img, p}
		}
		for _, c := range plan.Candidates {
			if w.FP && c.Config.ISA == idiag.RV32I {
				continue
			}
			cfg, energies := c.Config, c.Energies
			im := imgs[max(cfg.Rings, 1)]
			name := w.Name + "/" + cfg.Name
			jobs = append(jobs, exp.Job{Name: name, Run: func(ctx context.Context) (any, error) {
				j := t.begin("exp.job", root.id(), name)
				defer j.end(0)
				m, err := tracedDiAG(ctx, t, j.id(), name, cfg, im.img, 0, nil)
				if err != nil {
					return nil, err
				}
				if err := tracedCheck(t, j.id(), w, m.Mem(), im.p); err != nil {
					return nil, err
				}
				st := m.Stats()
				t.timed("power.energy", j.id(), name, func() (uint64, error) {
					power.DiAGEnergyWith(cfg, st, energies)
					return 0, nil
				})
				return nil, nil
			}})
		}
	}
	te := time.Now()
	results, err := exp.Run(ctx, jobs, exp.Options{Workers: e.batch})
	countExp(t, results, time.Since(te))
	root.end(0)
	traced := time.Since(t0)
	t.endUnit(len(results))
	if err == nil {
		err = exp.Errors(results)
	}
	e.ops(len(results), 0, nil)
	if err != nil {
		e.op(err)
	}
	e.set("trace.overhead_ms", ms(traced-untraced))
	e.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)))

	caches := t.begin("bench.caches", 0, strings.Join(pair, ","))
	seen := make(map[string]bool)
	for _, c := range plan.Candidates {
		geo := fmt.Sprint(cacheGeometry(c.Config))
		if !seen[geo] {
			seen[geo] = true
			tracedCacheNew(t, caches.id(), c.Config)
		}
	}
	caches.end(0)
	w, _ := workloads.ByName(pair[1])
	return probeLayers(ctx, e, w, true)
}
