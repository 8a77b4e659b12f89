package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diag"
	idiag "diag/internal/diag"
	"diag/internal/fault"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

// fault-campaign: per round, one journaled fault.Campaign on F4C2 and
// one on the OoO baseline, both forked from a warm snapshot, on a short
// integer kernel. Round 0 uses the benchmark seed as the campaign seed;
// later rounds derive theirs from it, so a window averages over many
// fault draws. The kernel is long enough (61k instructions) that a
// trial's simulation, not the journal's two fsyncs per trial, sets the
// pace: with xz (11k) the fsyncs were a third of a round and the
// shared disk's latency made throughput swing by a quarter between runs.
const (
	faultKernel = "x264"
	faultWarmup = 15000 // retired instructions before the fork point
)

func faultTrials(tiny bool) int {
	if tiny {
		return 12
	}
	return 100
}

// faultSeed is round r's campaign seed.
func faultSeed(seed int64, r int) int64 { return seed + int64(r)*1_000_003 }

// faultInput is the set-up product: the image, its golden memory
// digest, and each campaign machine's unfaulted cycle count, which the
// campaign's own unfaulted baseline run must reproduce.
type faultInput struct {
	w          workloads.Workload
	img        *mem.Image
	golden     uint64
	baseCycles []int64
}

func faultSetup() (*faultInput, error) {
	w, _ := workloads.ByName(faultKernel)
	p := workloads.Params{Scale: 1, Threads: 1}
	img, err := w.Build(p)
	if err != nil {
		return nil, err
	}
	in := &faultInput{w: w, img: img}
	// The golden ISS run, then the campaign machines in campaign order.
	for i, t := range []diag.Target{diag.ISS(), diag.DiAG(diag.F4C2()), diag.OoO(diag.Baseline())} {
		res, err := t.Run(img)
		if err != nil {
			return nil, fmt.Errorf("unfaulted %s run: %w", t.Name(), err)
		}
		if err := w.Check(res.Mem, p); err != nil {
			return nil, fmt.Errorf("unfaulted %s run: %w", t.Name(), err)
		}
		if i == 0 {
			in.golden = res.Mem.Digest()
		} else {
			in.baseCycles = append(in.baseCycles, res.Cycles)
		}
	}
	return in, nil
}

// campaignRun is one journaled campaign of a round.
type campaignRun struct {
	c          *fault.Campaign
	path       string // its journal
	baseCycles int64  // the machine's unfaulted cycle count
}

// faultCampaigns returns round r's two campaigns, journaled under e.tmp.
func faultCampaigns(e *env, in *faultInput, r int) ([]campaignRun, error) {
	dcfg, ocfg := idiag.F4C2(), ooo.Baseline()
	var runs []campaignRun
	for i, c := range []*fault.Campaign{{DiAG: &dcfg}, {OoO: &ocfg}} {
		c.Image = in.img
		c.Trials = faultTrials(e.opt.tiny)
		c.Seed = faultSeed(e.opt.seed, r)
		c.Workers = e.batch
		c.Warmup = faultWarmup
		path := filepath.Join(e.tmp, fmt.Sprintf("fault-%d-%d.journal", r, i))
		j, err := journal.Create(path, c.Manifest("perfbench"))
		if err != nil {
			return nil, err
		}
		c.Journal = j
		runs = append(runs, campaignRun{c, path, in.baseCycles[i]})
	}
	return runs, nil
}

// runCampaign runs one campaign and checks it: no campaign error, the
// set-up's unfaulted cycle count, an outcome for every trial, and a
// journal whose re-scan recovers every trial. Round 0's report tables
// feed the sim_digest. A non-nil t counts the journal's bytes.
func runCampaign(ctx context.Context, e *env, t *tracer, cr campaignRun, digest bool) (*fault.Report, time.Duration) {
	c := cr.c
	t0 := time.Now()
	rep, err := c.Run(ctx)
	d := time.Since(t0)
	if cerr := c.Journal.Close(); err == nil {
		err = cerr
	}
	defer os.Remove(cr.path)
	if err != nil {
		e.ops(c.Trials, c.Trials, fmt.Errorf("campaign %s: %w", filepath.Base(cr.path), err))
		return nil, d
	}
	if e.corruptOnce() {
		b, _ := os.ReadFile(cr.path)
		b[len(b)/2] ^= 0xff
		os.WriteFile(cr.path, b, 0o644)
	}
	e.ops(c.Trials, 0, nil)
	if len(rep.Trials) != c.Trials {
		e.op(fmt.Errorf("campaign %s: %d trials reported, want %d", rep.Machine, len(rep.Trials), c.Trials))
	}
	if rep.BaselineCycles != cr.baseCycles {
		e.op(fmt.Errorf("campaign %s: unfaulted run took %d cycles, set-up run %d", rep.Machine, rep.BaselineCycles, cr.baseCycles))
	}
	e.op(checkJournal(t, cr.path, c.Trials))
	if digest {
		e.addDigest(rep.Machine, rep.Table())
	}
	return rep, d
}

func runFault(e *env) error {
	ctx := context.Background()
	var in *faultInput
	setup, err := e.timeSetup(func() error {
		var err error
		in, err = faultSetup()
		return err
	})
	if err != nil {
		return err
	}
	var (
		units []unit
		lat   []float64
	)
	start := time.Now()
	for r := 0; r == 0 || !e.deadline(start, units[r-1].secs); r++ {
		clock := clockUnit()
		runs, err := faultCampaigns(e, in, r)
		if err != nil {
			return err
		}
		var u unit
		var ds []float64
		for _, cr := range runs {
			rep, d := runCampaign(ctx, e, nil, cr, r == 0)
			ds = append(ds, ms(d))
			u.ops += cr.c.Trials
			if rep != nil {
				u.retired += float64(rep.GoldenInstret) * float64(cr.c.Trials)
			}
		}
		clock.stop(&u)
		for _, d := range ds {
			lat = append(lat, d*(1-u.stolen))
		}
		units = append(units, u)
	}
	e.setEndToEnd(setup, units, quantiles(lat), quantiles(lat))
	return nil
}

// tracedFault runs round 0 untraced, then again with spans around each
// campaign, then traces the journal write path and the checkpoint and
// restore cycle the campaigns fork from, then the layer probe.
func tracedFault(e *env) error {
	ctx := context.Background()
	t := e.tr
	in, err := faultSetup()
	if err != nil {
		return err
	}
	var runs []campaignRun
	untraced := warmTime(func() {
		if runs, err = faultCampaigns(e, in, 0); err != nil {
			return
		}
		for _, cr := range runs {
			runCampaign(ctx, e, nil, cr, true)
		}
	})
	if err != nil {
		return err
	}

	t.startUnit()
	t0 := time.Now()
	if runs, err = faultCampaigns(e, in, 0); err != nil {
		return err
	}
	jobs := 0
	var payloads [][]byte
	for _, cr := range runs {
		root := t.begin("fault.campaign", 0, filepath.Base(cr.path))
		rep, _ := runCampaign(ctx, e, t, cr, false)
		root.end(0)
		if rep == nil {
			continue
		}
		countTrials(t, rep)
		jobs += len(rep.Trials)
		for _, tr := range rep.Trials {
			b, _ := json.Marshal(tr)
			payloads = append(payloads, b)
		}
	}
	traced := time.Since(t0)
	t.endUnit(jobs)
	e.set("trace.overhead_ms", ms(traced-untraced))
	e.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)))

	e.op(tracedJournal(t, 0, e.tmp, "trials", payloads))
	dcfg, ocfg := idiag.F4C2(), ooo.Baseline()
	for _, c := range []struct {
		d *idiag.Config
		o *ooo.Config
	}{{&dcfg, nil}, {nil, &ocfg}} {
		d, err := tracedSnap(ctx, t, 0, faultKernel, in.img, c.d, c.o, faultWarmup)
		if e.op(err) && d != in.golden {
			e.op(fmt.Errorf("%s: resumed run's memory differs from the golden run", faultKernel))
		}
	}
	return probeLayers(ctx, e, in.w, true)
}
