// diag-run executes a program — an assembly source file or a named
// benchmark workload — on a DiAG machine or on the out-of-order
// baseline, and reports timing, stall, and energy statistics.
//
// Usage:
//
//	diag-run [-machine F4C16] [-rings N] prog.s
//	diag-run -workload hotspot [-scale 2] [-threads 4] [-simt] [-machine F4C32]
//	diag-run -workload mcf -machine ooo [-cores 12]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"diag"
	"diag/internal/asm"
	"diag/internal/cliutil"
	"diag/internal/mem"
	"diag/internal/power"
	"diag/internal/workloads"
)

func main() {
	core := cliutil.Flags(flag.CommandLine)
	machine := flag.String("machine", "F4C16", "I4C2, F4C2, F4C16, F4C32, or ooo")
	rings := flag.Int("rings", 0, "reshape the DiAG machine into N rings x 2 clusters")
	cores := flag.Int("cores", 1, "baseline core count (machine=ooo)")
	workload := flag.String("workload", "", "run a named benchmark instead of a file")
	scale := flag.Int("scale", 1, "workload problem-size knob")
	threads := flag.Int("threads", 1, "workload thread count")
	simt := flag.Bool("simt", false, "annotate the workload's parallel loop with simt.s/simt.e")
	showEnergy := flag.Bool("energy", true, "print the energy breakdown")
	traceN := flag.Int("trace", 0, "print the last N retired instructions and the instruction mix")
	prefetch := flag.Bool("prefetch", false, "enable PE-local stride prefetching (paper §5.2)")
	sharedFPUs := flag.Int("shared-fpus", 0, "share N FPUs per cluster instead of one per PE (paper §7.5)")
	spec := flag.Bool("spec-datapaths", false, "speculatively construct taken-branch target datapaths (paper §7.3.2)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	maxCycles := flag.Int64("max-cycles", 0, "simulated-cycle budget for the run (0 = none)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := core.Context(ctx)
	defer cancel()

	img, check, err := buildProgram(*workload, workloads.Params{Scale: *scale, Threads: *threads, SIMT: *simt})
	if err != nil {
		fatal(err)
	}

	var target diag.Target
	var cfg diag.Config
	baseline := diag.Baseline()
	if strings.EqualFold(*machine, "ooo") {
		if *cores > 1 {
			baseline = diag.BaselineMulticore(*cores)
		}
		target = diag.OoO(baseline)
	} else {
		if cfg, err = diagConfig(*machine); err != nil {
			fatal(err)
		}
		if *rings > 0 {
			cfg = diag.MultiRing(cfg, *rings, 2)
		}
		cfg.StridePrefetch = *prefetch
		cfg.SharedFPUs = *sharedFPUs
		cfg.SpeculativeDatapaths = *spec
		if *workload != "" && *threads > 1 && cfg.Rings < *threads {
			fmt.Fprintf(os.Stderr, "note: %d threads on %d ring(s); extra threads never run\n", *threads, cfg.Rings)
		}
		target = diag.DiAG(cfg)
	}
	opts := []diag.RunOption{diag.WithContext(ctx), diag.WithShards(*core.Shards), diag.WithMaxCycles(*maxCycles)}
	var trace bytes.Buffer
	if *traceN > 0 {
		opts = append(opts, diag.WithTrace(&trace), diag.WithTraceDepth(*traceN))
	}
	res, err := target.Run(img, opts...)
	if err != nil {
		fatal(err)
	}
	if check != nil {
		if err := check(res.Mem); err != nil {
			fatal(fmt.Errorf("result check failed: %w", err))
		}
		if !*asJSON {
			fmt.Println("result check: ok")
		}
	}
	switch {
	case *asJSON && res.DiAG != nil:
		emitJSON(cfg.Name, res.DiAG, diag.Energy(cfg, *res.DiAG))
	case *asJSON:
		emitJSON(baseline.Name, res.Baseline, diag.BaselineEnergy(baseline, *res.Baseline, 2000))
	case res.DiAG != nil:
		printDiAG(cfg, *res.DiAG, *showEnergy)
	default:
		printBaseline(baseline, *res.Baseline, *showEnergy)
	}
	if trace.Len() > 0 {
		if *asJSON { // keep stdout valid JSON
			os.Stderr.Write(trace.Bytes())
			return
		}
		fmt.Println()
		fmt.Print(trace.String())
	}
}

func buildProgram(name string, p workloads.Params) (*mem.Image, func(*mem.Memory) error, error) {
	if name != "" {
		w, ok := workloads.ByName(name)
		if !ok {
			names := make([]string, 0, 20)
			for _, w := range workloads.All() {
				names = append(names, w.Name)
			}
			return nil, nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
		}
		img, err := w.Build(p)
		return img, func(m *mem.Memory) error { return w.Check(m, p) }, err
	}
	if flag.NArg() != 1 {
		return nil, nil, fmt.Errorf("usage: diag-run [flags] prog.s  (or -workload NAME)")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return nil, nil, err
	}
	img, err := asm.Assemble(string(src))
	return img, nil, err
}

func diagConfig(name string) (diag.Config, error) {
	switch strings.ToUpper(name) {
	case "I4C2":
		return diag.I4C2(), nil
	case "F4C2":
		return diag.F4C2(), nil
	case "F4C16":
		return diag.F4C16(), nil
	case "F4C32":
		return diag.F4C32(), nil
	}
	return diag.Config{}, fmt.Errorf("unknown machine %q", name)
}

func printDiAG(cfg diag.Config, st diag.Stats, energy bool) {
	fmt.Printf("machine:   %s (%d PEs, %d ring(s) x %d clusters x %d PEs)\n",
		cfg.Name, cfg.TotalPEs(), cfg.Rings, cfg.Clusters, cfg.PEsPerCluster)
	fmt.Printf("cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Printf("reuse:     %d backward branches reused the datapath, %d reloaded; %d I-lines fetched\n",
		st.ReuseHits, st.ReuseMisses, st.LinesFetched)
	fmt.Printf("stalls:    memory %.1f%%  control %.1f%%  other %.1f%%\n",
		100*st.StallShare(diag.StallMemory), 100*st.StallShare(diag.StallControl),
		100*st.StallShare(diag.StallOther))
	if st.StridePrefetches > 0 || st.SpecDatapathHits > 0 {
		fmt.Printf("ext:       %d stride prefetches, %d speculative-datapath hits\n",
			st.StridePrefetches, st.SpecDatapathHits)
	}
	if st.SIMTRegions > 0 || st.SIMTRejects > 0 {
		fmt.Printf("simt:      %d regions pipelined %d threads (%d rejected to sequential)\n",
			st.SIMTRegions, st.SIMTThreads, st.SIMTRejects)
	}
	fmt.Printf("caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	if energy {
		e := diag.Energy(cfg, st)
		sh := e.Share()
		fmt.Printf("energy:    %.3g J  (FP %.0f%%, lanes+ALU %.0f%%, memory %.0f%%, control %.0f%%)\n",
			e.Total(), 100*sh[0], 100*sh[1], 100*sh[2], 100*sh[3])
	}
}

func printBaseline(cfg diag.BaselineConfig, st diag.BaselineStats, energy bool) {
	fmt.Printf("machine:   %s (%d core(s), %d-wide)\n", cfg.Name, cfg.Cores, cfg.IssueWidth)
	fmt.Printf("cycles:    %d   retired: %d   IPC: %.3f\n", st.Cycles, st.Retired, st.IPC())
	fmt.Printf("branches:  %d (%.2f%% mispredicted)\n", st.Branches, 100*st.MispredictRate())
	fmt.Printf("caches:    L1I %.1f%% miss   L1D %.1f%% miss   L2 %.1f%% miss   DRAM %d\n",
		100*st.L1I.MissRate(), 100*st.L1D.MissRate(), 100*st.L2.MissRate(), st.DRAMAccesses)
	if energy {
		e := diag.BaselineEnergy(cfg, st, 2000)
		sh := e.Share()
		fmt.Printf("energy:    %.3g J  (FP %.0f%%, datapath %.0f%%, memory %.0f%%, control %.0f%%)\n",
			e.Total(), 100*sh[0], 100*sh[1], 100*sh[2], 100*sh[3])
	}
}

// emitJSON prints one run's stats and energy as a JSON object.
func emitJSON(machine string, stats any, energy power.Breakdown) {
	out := struct {
		Machine string          `json:"machine"`
		Stats   any             `json:"stats"`
		Energy  power.Breakdown `json:"energy"`
		Joules  float64         `json:"joules"`
	}{machine, stats, energy, energy.Total()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diag-run:", err)
	os.Exit(1)
}
