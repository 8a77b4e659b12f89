package main

import (
	"testing"
	"time"

	idiag "diag/internal/diag"
	"diag/internal/explore"
)

// TestTinyWorkloads runs every workload at the tiny size, untraced and
// traced, and requires a correct result carrying every named metric.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloadList {
		for _, trace := range []bool{false, true} {
			res, _, err := runWorkload(options{workload: w.name, seed: 7, seconds: 0.5, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
		}
	}
}

// TestCorruptedOutputFails damages one output per workload and requires
// the checks to catch it and count it as failed.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range workloadList {
		res, _, err := runWorkload(options{workload: w.name, seed: 7, seconds: 0.5, tiny: true, corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted output not caught (attempted=%d failed=%d)", w.name, res.Attempted, res.Failed)
		}
	}
}

// TestSimDigestRepeats requires the same seed to give the same
// sim_digest.
func TestSimDigestRepeats(t *testing.T) {
	for _, w := range workloadList {
		var first uint64
		for i := 0; i < 2; i++ {
			_, e, err := runWorkload(options{workload: w.name, seed: 3, seconds: 0.5, tiny: true})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if d := e.digest.Sum64(); i == 0 {
				first = d
			} else if d != first {
				t.Errorf("%s: sim_digest %016x then %016x", w.name, first, d)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Name: "exp.job", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "diag.run", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "diag.new", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Name: "power.energy", Start: 8 * ms, End: 12 * ms},
	}}
	self, _ := tr.selfTimes(0)
	if self["exp"] != 3*ms || self["diag"] != 6*ms || self["power"] != 4*ms {
		t.Errorf("self times %v", self)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(xs, 1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

// TestMedianCycle requires a burst in one segment of one cycle to
// leave the representative cycle unchanged, and each cycle's stolen
// share to come off its segments.
func TestMedianCycle(t *testing.T) {
	cycle := func(burst, stolen float64) exploreCycle {
		c := exploreCycle{unit: unit{ops: 4, retired: 40, secs: 4 + burst, stolen: stolen}}
		c.done = []float64{1, 2 + burst, 3 + burst, 4 + burst}
		return c
	}
	u := medianCycle([]exploreCycle{cycle(0, 0), cycle(5, 0), cycle(0, 0)}, 4)
	if u.secs != 4 || u.ops != 4 || u.retired != 40 || u.stolen != 0 {
		t.Errorf("burst: %+v, want 4 ops in 4 s", u)
	}
	u = medianCycle([]exploreCycle{cycle(0, 0.5), cycle(0, 0.5), cycle(0, 0.5)}, 2)
	if u.secs != 2 {
		t.Errorf("stolen half: %v s, want 2", u.secs)
	}
}

func TestStolenShare(t *testing.T) {
	a, b := cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 190, steal: 20}
	if got := stolenShare(a, b); got != 0.1 {
		t.Errorf("stolen share %v, want 0.1", got)
	}
	if got := stolenShare(a, a); got != 0 {
		t.Errorf("idle stolen share %v, want 0", got)
	}
}

// TestCacheGeometrySizes requires every configuration whose caches the
// traced run times to carry explicit cache sizes, since cacheGeometry
// applies no defaults of its own.
func TestCacheGeometrySizes(t *testing.T) {
	cfgs := []idiag.Config{idiag.F4C2(), idiag.F4C16(), idiag.MultiRing(idiag.F4C2(), longShardThreads, 2)}
	for _, tiny := range []bool{false, true} {
		plan, err := explore.NewPlan(exploreSpace(tiny), exploreMemory[:1])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.Candidates {
			cfgs = append(cfgs, c.Config)
		}
	}
	for _, c := range cfgs {
		if c.Rings < 1 || c.L1ISize <= 0 || c.L1DSize <= 0 || c.L1DBanks <= 0 || c.MemLaneLines <= 0 ||
			(c.L2Size <= 0 && c.L2Size != idiag.NoL2) {
			t.Errorf("%s: cache sizes not explicit: %+v", c.Name, c)
		}
		want := 3 * c.Rings
		if c.L2Size > 0 {
			want++
		}
		if n := len(cacheGeometry(c)); n != want {
			t.Errorf("%s: %d caches, want %d", c.Name, n, want)
		}
	}
}
