package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"diag"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

// sim-long: long single runs where the step loops dominate. Each round
// takes the next kernel of a seeded permutation of each class and runs
// it on the ISS, DiAG(F4C16) and the OoO baseline, plus the round's
// FP kernel partitioned over a 4-ring machine sharded across the
// workers. A cycle of two rounds covers every kernel once; the window
// runs whole cycles.
type longKernel struct {
	name  string
	scale int
}

// longClasses are the kernel pools: FP compute, memory latency and
// branchy integer. perlbench runs at scale 32, the largest power of two
// at which its check passes: from scale 42 up its input strings overrun
// the 512 KiB input region internal/workloads gives them, a known
// defect that fails the check on every machine.
var longClasses = [3][2]longKernel{
	{{"lud", 6}, {"srad", 64}},             // FP compute
	{{"mcf", 16}, {"omnetpp", 16}},         // memory latency
	{{"perlbench", 32}, {"xalancbmk", 16}}, // branchy integer
}

// longShardThreads is the partition count of the sharded run.
const longShardThreads = 4

// longImage is one built sim-long input.
type longImage struct {
	w workloads.Workload
	diagImage
}

// longInputs are every image sim-long runs: per class kernel, plus the
// FP kernels' partitioned form.
type longInputs struct {
	single  map[string]longImage
	sharded map[string]longImage
}

func longScale(k longKernel, tiny bool) int {
	if tiny {
		return 1
	}
	return k.scale
}

func simLongSetup(tiny bool) (*longInputs, error) {
	in := &longInputs{single: make(map[string]longImage), sharded: make(map[string]longImage)}
	for ci, class := range longClasses {
		for _, k := range class {
			w, ok := workloads.ByName(k.name)
			if !ok {
				return nil, fmt.Errorf("unknown kernel %s", k.name)
			}
			p := workloads.Params{Scale: longScale(k, tiny), Threads: 1}
			img, err := w.Build(p)
			if err != nil {
				return nil, err
			}
			in.single[k.name] = longImage{w, diagImage{img, p}}
			if ci == 0 {
				p.Threads = longShardThreads
				img, err := w.Build(p)
				if err != nil {
					return nil, err
				}
				in.sharded[k.name] = longImage{w, diagImage{img, p}}
			}
		}
	}
	return in, nil
}

// longRound returns round r's kernels, one per class, from the cycle's
// permutations.
func longRound(perms [3][]int, r int) [3]string {
	var out [3]string
	for c := range longClasses {
		out[c] = longClasses[c][perms[c][r%2]].name
	}
	return out
}

func longPerms(rng *rand.Rand) [3][]int {
	var p [3][]int
	for c := range p {
		p[c] = rng.Perm(len(longClasses[c]))
	}
	return p
}

// longRun is one measured run.
type longRun struct {
	res *diag.Result
	dur time.Duration
}

// longTargets are the machines every kernel runs on.
func longTargets() []diag.Target {
	return []diag.Target{diag.ISS(), diag.DiAG(diag.F4C16()), diag.OoO(diag.Baseline())}
}

// runLongKernel runs one kernel on every machine and checks each final
// memory plus cross-machine agreement.
func runLongKernel(e *env, in longImage, digest bool) []longRun {
	var runs []longRun
	var want uint64
	for i, t := range longTargets() {
		t0 := time.Now()
		res, err := t.Run(in.img)
		d := time.Since(t0)
		if err != nil {
			e.op(fmt.Errorf("%s on %s: %w", in.w.Name, t.Name(), err))
			continue
		}
		runs = append(runs, longRun{res, d})
		e.op(checkLong(e, in, res, t.Name(), i == 0, &want, digest))
	}
	return runs
}

// checkLong applies the workload's check to a run's final memory and
// requires every machine's memory digest to equal the ISS's.
func checkLong(e *env, in longImage, res *diag.Result, machine string, first bool, want *uint64, digest bool) error {
	if e.corruptOnce() {
		res.Mem.StoreWord(0x0020_0000, ^res.Mem.LoadWord(0x0020_0000))
	}
	if err := in.w.Check(res.Mem, in.p); err != nil {
		return fmt.Errorf("%s on %s: %w", in.w.Name, machine, err)
	}
	d := res.Mem.Digest()
	if first {
		*want = d
	} else if d != *want {
		return fmt.Errorf("%s on %s: memory digest %016x, ISS %016x", in.w.Name, machine, d, *want)
	}
	if digest {
		var stats any
		switch {
		case res.DiAG != nil:
			stats = res.DiAG
		case res.Baseline != nil:
			stats = res.Baseline
		}
		b, err := json.Marshal(stats)
		if err != nil {
			return err
		}
		e.addDigest(in.w.Name, machine, fmt.Sprint(res.Cycles, res.Retired), fmt.Sprintf("%016x", d), string(b))
	}
	return nil
}

// tracedDigestCheck checks a timing machine's final memory with the
// workload's check and against the ISS's digest.
func tracedDigestCheck(t *tracer, parent int64, li longImage, got, want uint64, m *mem.Memory) error {
	if err := tracedCheck(t, parent, li.w, m, li.p); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: memory digest %016x, ISS %016x", li.w.Name, got, want)
	}
	return nil
}

// runSharded runs a partitioned kernel on the 4-ring machine with
// WithShards(workers) and checks it.
func runSharded(e *env, in longImage, digest bool) (longRun, bool) {
	t := diag.DiAG(diag.MultiRing(diag.F4C2(), longShardThreads, 2))
	t0 := time.Now()
	res, err := t.Run(in.img, diag.WithShards(e.workers))
	d := time.Since(t0)
	if err != nil {
		e.op(fmt.Errorf("%s sharded: %w", in.w.Name, err))
		return longRun{}, false
	}
	var want uint64
	e.op(checkLong(e, in, res, "sharded", true, &want, digest))
	return longRun{res, d}, true
}

func runSimLong(e *env) error {
	var in *longInputs
	setup, err := e.timeSetup(func() error {
		var err error
		in, err = simLongSetup(e.opt.tiny)
		return err
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.opt.seed))
	var (
		units []unit
		lat   []float64
	)
	start := time.Now()
	for cycle := 0; cycle == 0 || !e.deadline(start, units[cycle-1].secs); cycle++ {
		var runs []longRun
		clock := clockUnit()
		perms := longPerms(rng)
		for r := 0; r < 2; r++ {
			kernels := longRound(perms, r)
			for _, k := range kernels {
				runs = append(runs, runLongKernel(e, in.single[k], cycle == 0)...)
			}
			if run, ok := runSharded(e, in.sharded[kernels[0]], cycle == 0); ok {
				runs = append(runs, run)
			}
		}
		u := unit{ops: len(runs)}
		clock.stop(&u)
		for _, r := range runs {
			u.retired += float64(r.res.Retired)
			lat = append(lat, ms(r.dur)*(1-u.stolen))
		}
		units = append(units, u)
	}
	e.setEndToEnd(setup, units, quantiles(lat), quantiles(lat))
	return nil
}

// tracedSimLong runs round 0 untraced through the Target API, then the
// same round on the machines directly with spans around construction,
// the run and the check, then the layer probe.
func tracedSimLong(e *env) error {
	ctx := context.Background()
	t := e.tr
	in, err := simLongSetup(e.opt.tiny)
	if err != nil {
		return err
	}
	kernels := longRound(longPerms(rand.New(rand.NewSource(e.opt.seed))), 0)

	untraced := warmTime(func() {
		for _, k := range kernels {
			runLongKernel(e, in.single[k], true)
		}
		runSharded(e, in.sharded[kernels[0]], true)
	})

	t.startUnit()
	t0 := time.Now()
	jobs := 0
	for _, k := range kernels {
		li := in.single[k]
		root := t.begin("bench.kernel", 0, k)
		res, err := tracedISS(t, root.id(), k, li.img)
		if e.op(err) {
			want := res.Mem.Digest()
			dm, err := tracedDiAG(ctx, t, root.id(), k, diag.F4C16(), li.img, 0, nil)
			if e.op(err) {
				e.op(tracedDigestCheck(t, root.id(), li, dm.Mem().Digest(), want, dm.Mem()))
			}
			om, err := tracedOoO(ctx, t, root.id(), k, ooo.Baseline(), li.img)
			if e.op(err) {
				e.op(tracedDigestCheck(t, root.id(), li, om.Mem().Digest(), want, om.Mem()))
			}
		}
		root.end(0)
		jobs += 3
	}
	sh := in.sharded[kernels[0]]
	root := t.begin("bench.kernel", 0, kernels[0]+"/sharded")
	m, err := tracedDiAG(ctx, t, root.id(), kernels[0], diag.MultiRing(diag.F4C2(), longShardThreads, 2),
		sh.img, e.workers, nil)
	if e.op(err) {
		e.op(tracedCheck(t, root.id(), sh.w, m.Mem(), sh.p))
	}
	root.end(0)
	traced := time.Since(t0)
	t.endUnit(jobs + 1)
	e.set("trace.overhead_ms", ms(traced-untraced))
	e.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)))
	return probeLayers(ctx, e, in.single[kernels[0]].w, true)
}
