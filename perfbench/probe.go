package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diag"
	"diag/internal/cache"
	idiag "diag/internal/diag"
	"diag/internal/exp"
	"diag/internal/explore"
	"diag/internal/fault"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/obsv"
	"diag/internal/ooo"
	"diag/internal/power"
	"diag/internal/snap"
	"diag/internal/workloads"
)

// Traced-run building blocks: each calls one layer's public functions
// inside spans. The workloads' traced runs compose them, and the layer
// probe runs every one of them once so that every per-layer metric is
// measured on every workload.

// tracedBuild builds w's image for p inside a workloads.build span.
func tracedBuild(t *tracer, parent int64, w workloads.Workload, p workloads.Params) (*mem.Image, error) {
	var img *mem.Image
	err := t.timed("workloads.build", parent, w.Name, func() (uint64, error) {
		var err error
		img, err = w.Build(p)
		return 0, err
	})
	return img, err
}

// tracedCheck runs w's output check inside a workloads.check span.
func tracedCheck(t *tracer, parent int64, w workloads.Workload, m *mem.Memory, p workloads.Params) error {
	return t.timed("workloads.check", parent, w.Name, func() (uint64, error) { return 0, w.Check(m, p) })
}

// cacheGeometry is every cache a DiAG machine with cfg builds: per ring
// L1I, L1D and memory lanes, plus the shared L2 unless cfg has NoL2.
// The list must match internal/diag's builders (Config.buildICache,
// buildL1D and buildL2 in config.go, the memory lanes in machine.go's
// newRing). cfg must carry explicit sizes, as the named configurations
// and explore's candidates do; TestCacheGeometrySizes checks that.
func cacheGeometry(cfg idiag.Config) []cache.Config {
	var out []cache.Config
	for r := 0; r < cfg.Rings; r++ {
		out = append(out,
			cache.Config{Name: "L1I", Size: cfg.L1ISize, LineSize: 64, Assoc: 1, Latency: 1},
			cache.Config{Name: "L1D", Size: cfg.L1DSize, LineSize: 64, Assoc: 4, Latency: 2, Banks: cfg.L1DBanks},
			cache.Config{Name: "memlanes", Size: cfg.MemLaneLines * 64, LineSize: 64, Assoc: cfg.MemLaneLines, Latency: 1})
	}
	if cfg.L2Size > 0 {
		out = append(out, cache.Config{Name: "L2", Size: cfg.L2Size, LineSize: 64, Assoc: 8, Latency: 12})
	}
	return out
}

// tracedCacheNew times cache.New for every cache of cfg's geometry. The
// machine builds its own caches, so callers time this apart from the
// machine runs.
func tracedCacheNew(t *tracer, parent int64, cfg idiag.Config) {
	a := t.begin("cache.new", parent, cfg.Name)
	var bytes uint64
	for _, c := range cacheGeometry(cfg) {
		cache.New(c, nil)
		bytes += uint64(c.Size)
	}
	a.end(bytes)
}

// tracedDiAG runs img on a fresh DiAG machine: diag.new then diag.run
// (or obsv.run when reg is non-nil), returning the machine.
func tracedDiAG(ctx context.Context, t *tracer, parent int64, req string, cfg idiag.Config,
	img *mem.Image, shards int, reg *obsv.Registry) (*idiag.Machine, error) {
	var m *idiag.Machine
	err := t.timed("diag.new", parent, req, func() (uint64, error) {
		var err error
		m, err = idiag.NewMachine(cfg, img)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	name := "diag.run"
	if reg != nil {
		m.SetObserver(reg)
		name = "obsv.run"
	}
	if shards > 1 {
		m.SetShards(shards)
	}
	err = t.timed(name, parent, req, func() (uint64, error) {
		_, err := m.RunUntil(ctx, 0)
		return m.Stats().Retired, err
	})
	return m, err
}

// tracedOoO runs img on a fresh OoO machine: ooo.new then ooo.run.
func tracedOoO(ctx context.Context, t *tracer, parent int64, req string, cfg ooo.Config,
	img *mem.Image) (*ooo.Machine, error) {
	var m *ooo.Machine
	err := t.timed("ooo.new", parent, req, func() (uint64, error) {
		var err error
		m, err = ooo.NewMachine(cfg, img)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	err = t.timed("ooo.run", parent, req, func() (uint64, error) {
		_, err := m.RunUntil(ctx, 0)
		return m.Stats().Retired, err
	})
	return m, err
}

// tracedISS runs img on the functional ISS target and counts its
// superblock-cache hits and misses.
func tracedISS(t *tracer, parent int64, req string, img *mem.Image) (*diag.Result, error) {
	var res *diag.Result
	err := t.timed("iss.run", parent, req, func() (uint64, error) {
		var err error
		res, err = diag.ISS().Run(img)
		if err != nil {
			return 0, err
		}
		return res.Retired, nil
	})
	if err == nil {
		hits, misses, _ := res.CPU.SuperblockStats()
		t.count("iss.sb_hits", float64(hits))
		t.count("iss.sb_misses", float64(misses))
	}
	return res, err
}

// tracedSnap pauses a DiAG or OoO machine halfway through img, then
// checkpoints, encodes, decodes and restores it inside snap.* spans and
// runs the restored machine to completion. It returns the final memory
// digest, which must equal a straight run's.
func tracedSnap(ctx context.Context, t *tracer, parent int64, req string, img *mem.Image,
	dcfg *idiag.Config, ocfg *ooo.Config, at uint64) (uint64, error) {
	var st *snap.Snapshot
	if dcfg != nil {
		m, err := idiag.NewMachine(*dcfg, img)
		if err != nil {
			return 0, err
		}
		if _, err := m.RunUntil(ctx, at); err != nil {
			return 0, err
		}
		t.timed("snap.checkpoint", parent, req, func() (uint64, error) {
			st = &snap.Snapshot{Kind: snap.KindDiAG, DiAG: m.State()}
			return 0, nil
		})
	} else {
		m, err := ooo.NewMachine(*ocfg, img)
		if err != nil {
			return 0, err
		}
		if _, err := m.RunUntil(ctx, at); err != nil {
			return 0, err
		}
		t.timed("snap.checkpoint", parent, req, func() (uint64, error) {
			st = &snap.Snapshot{Kind: snap.KindOoO, OoO: m.State()}
			return 0, nil
		})
	}
	var enc []byte
	if err := t.timed("snap.encode", parent, req, func() (uint64, error) {
		var err error
		enc, err = snap.Encode(st)
		return uint64(len(enc)), err
	}); err != nil {
		return 0, err
	}
	var dec *snap.Snapshot
	if err := t.timed("snap.decode", parent, req, func() (uint64, error) {
		var err error
		dec, err = snap.Decode(enc)
		return uint64(len(enc)), err
	}); err != nil {
		return 0, err
	}
	if dec.Kind == snap.KindDiAG {
		var m *idiag.Machine
		if err := t.timed("snap.restore", parent, req, func() (uint64, error) {
			var err error
			m, err = idiag.NewMachineFromState(dec.DiAG)
			return 0, err
		}); err != nil {
			return 0, err
		}
		if _, err := m.RunUntil(ctx, 0); err != nil {
			return 0, err
		}
		return m.Mem().Digest(), nil
	}
	var m *ooo.Machine
	if err := t.timed("snap.restore", parent, req, func() (uint64, error) {
		var err error
		m, err = ooo.NewMachineFromState(dec.OoO)
		return 0, err
	}); err != nil {
		return 0, err
	}
	if _, err := m.RunUntil(ctx, 0); err != nil {
		return 0, err
	}
	return m.Mem().Digest(), nil
}

// tracedJournal appends one started+done record pair per payload to a
// fresh journal in dir, each append inside a journal.append span, and
// checks that a re-scan of the file recovers every record.
func tracedJournal(t *tracer, parent int64, dir, label string, payloads [][]byte) error {
	path := filepath.Join(dir, label+".journal")
	j, err := journal.Create(path, journal.Manifest{Tool: "perfbench", Jobs: len(payloads)})
	if err != nil {
		return err
	}
	sw, err := j.BeginSweep(len(payloads), label)
	if err != nil {
		j.Close()
		return err
	}
	for i, p := range payloads {
		if err := t.timed("journal.append", parent, label, func() (uint64, error) {
			if err := sw.Started(i); err != nil {
				return 0, err
			}
			return uint64(len(p)), sw.Done(i, p)
		}); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	return checkJournal(t, path, len(payloads))
}

// checkJournal re-scans a journal file and checks that it recorded
// want completed jobs; with a tracer it also counts the file's bytes.
func checkJournal(t *tracer, path string, want int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if t != nil {
		t.count("journal.bytes", float64(len(b)))
	}
	st, _, err := journal.Scan(b)
	if err != nil {
		return fmt.Errorf("journal %s: %w", filepath.Base(path), err)
	}
	if done, _ := st.CountDone(); done != want {
		return fmt.Errorf("journal %s: %d done records, want %d", filepath.Base(path), done, want)
	}
	return nil
}

// probeLayers calls every layer once on w at scale 1 inside spans, and
// sets the simulated counts (sim.*, cache.*) from its F4C2 run — a fixed
// amount of work per seed, so those counts repeat exactly. The server
// part is skipped when the workload measures the server itself.
func probeLayers(ctx context.Context, e *env, w workloads.Workload, withServer bool) error {
	t := e.tr
	root := t.begin("bench.probe", 0, w.Name)
	defer root.end(0)
	pid := root.id()
	p := workloads.Params{Scale: 1, Threads: 1}
	img, err := tracedBuild(t, pid, w, p)
	if !e.op(err) {
		return nil
	}
	e.op(t.timed("mem.load", pid, w.Name, func() (uint64, error) {
		_, err := img.Load(mem.New())
		return 0, err
	}))
	if err := t.timed("explore.plan", pid, w.Name, func() (uint64, error) {
		_, err := explore.NewPlan(explore.PaperSpace(), []string{w.Name})
		return 0, err
	}); !e.op(err) {
		return nil
	}

	// The four machine runs go through the exp engine, as sweeps do.
	cfg := idiag.F4C2()
	var stats idiag.Stats
	var digests [4]uint64
	tracedCacheNew(t, pid, cfg)
	jobs := []exp.Job{
		{Name: "diag", Run: func(ctx context.Context) (any, error) {
			j := t.begin("exp.job", pid, "diag")
			defer j.end(0)
			m, err := tracedDiAG(ctx, t, j.id(), w.Name, cfg, img, 0, nil)
			if err != nil {
				return nil, err
			}
			stats = m.Stats()
			t.timed("power.energy", j.id(), w.Name, func() (uint64, error) {
				power.DiAGEnergy(cfg, stats)
				return 0, nil
			})
			digests[0] = m.Mem().Digest()
			return nil, tracedCheck(t, j.id(), w, m.Mem(), p)
		}},
		{Name: "obsv", Run: func(ctx context.Context) (any, error) {
			j := t.begin("exp.job", pid, "obsv")
			defer j.end(0)
			m, err := tracedDiAG(ctx, t, j.id(), w.Name, cfg, img, 0, obsv.NewRegistry(0))
			if err != nil {
				return nil, err
			}
			digests[1] = m.Mem().Digest()
			return nil, nil
		}},
		{Name: "ooo", Run: func(ctx context.Context) (any, error) {
			j := t.begin("exp.job", pid, "ooo")
			defer j.end(0)
			m, err := tracedOoO(ctx, t, j.id(), w.Name, ooo.Baseline(), img)
			if err != nil {
				return nil, err
			}
			digests[2] = m.Mem().Digest()
			return nil, tracedCheck(t, j.id(), w, m.Mem(), p)
		}},
		{Name: "iss", Run: func(ctx context.Context) (any, error) {
			j := t.begin("exp.job", pid, "iss")
			defer j.end(0)
			res, err := tracedISS(t, j.id(), w.Name, img)
			if err != nil {
				return nil, err
			}
			digests[3] = res.Mem.Digest()
			return nil, nil
		}},
	}
	t0 := time.Now()
	results, err := exp.Run(ctx, jobs, exp.Options{Workers: e.batch})
	countExp(t, results, time.Since(t0))
	if err == nil {
		err = exp.Errors(results)
	}
	if !e.op(err) {
		return nil
	}
	if digests[1] != digests[0] || digests[2] != digests[0] || digests[3] != digests[0] {
		e.op(fmt.Errorf("probe %s: final memory differs across machines", w.Name))
	}
	e.set("sim.cycles", float64(stats.Cycles))
	e.set("sim.retired", float64(stats.Retired))
	e.set("sim.ipc", stats.IPC())
	e.set("cache.l1d_miss_rate", stats.L1D.MissRate())
	e.set("cache.l2_miss_rate", stats.L2.MissRate())

	// Checkpoint/restore halfway on both timing machines.
	ocfg := ooo.Baseline()
	for _, c := range []struct {
		d *idiag.Config
		o *ooo.Config
	}{{&cfg, nil}, {nil, &ocfg}} {
		d, err := tracedSnap(ctx, t, pid, w.Name, img, c.d, c.o, stats.Retired/2)
		if e.op(err) && d != digests[0] {
			e.op(fmt.Errorf("probe %s: resumed run's memory differs from a straight run", w.Name))
		}
	}

	// A small journaled fault campaign and a journal write of its trials.
	camp := &fault.Campaign{Image: img, DiAG: &cfg, Trials: 16, Seed: e.opt.seed,
		Workers: e.batch, Warmup: stats.Retired / 4}
	var rep *fault.Report
	if err := t.timed("fault.campaign", pid, w.Name, func() (uint64, error) {
		var err error
		rep, err = camp.Run(ctx)
		return 0, err
	}); !e.op(err) {
		return nil
	}
	countTrials(t, rep)
	var payloads [][]byte
	for _, tr := range rep.Trials {
		b, _ := json.Marshal(tr)
		payloads = append(payloads, b)
	}
	e.op(tracedJournal(t, pid, e.tmp, "probe", payloads))

	if withServer {
		return probeServer(e, pid, w)
	}
	return nil
}

// countExp folds one exp.Run's job times into the exp.* counters.
func countExp(t *tracer, results []exp.Result, wall time.Duration) {
	var busy time.Duration
	for _, r := range results {
		busy += r.Elapsed
	}
	t.count("exp.busy_s", busy.Seconds())
	t.count("exp.wall_s", wall.Seconds())
}

// countTrials folds a campaign's outcomes into the fault.* counters.
func countTrials(t *tracer, rep *fault.Report) {
	for _, tr := range rep.Trials {
		t.count("fault.trials", 1)
		if tr.Outcome == fault.Hang {
			t.count("fault.hangs", 1)
		}
	}
}
