// Command iddebench regenerates the paper's evaluation: Table 2 and
// Figures 1 and 3–7. Each figure's data is printed as a markdown table
// and optionally written as CSV series for plotting.
//
// Usage:
//
//	iddebench -list                 # print Table 2
//	iddebench -fig 3                # regenerate Figure 3 (Set #1)
//	iddebench -fig 0 -reps 50       # everything, at the paper's budget
//	iddebench -fig 4 -out results/  # also write CSV files
//
// The IDDE-IP baseline's solver budget defaults to 500ms per instance
// (the paper caps CPLEX at 100 s; see DESIGN.md §4); raise it with
// -ip-budget for higher-fidelity IP results, or drop IP entirely with
// -no-ip for quick sweeps.
//
// Performance tracking:
//
//	iddebench -perfjson BENCH_phase1.json            # regenerate the Phase 1 perf baseline
//	iddebench -perf2json BENCH_phase2.json           # regenerate the Phase 2 perf baseline
//	iddebench -memjson BENCH_mem.json                # regenerate the memory/allocation baseline
//	iddebench -servejson BENCH_serve.json            # regenerate the serving-soak baseline
//	iddebench -shardjson BENCH_shard.json            # regenerate the geo-sharded solver baseline
//	iddebench -perfjson out.json -perftime 250ms     # quick CI smoke variant
//	iddebench -fig 4 -cpuprofile cpu.pb.gz           # pprof any run
//	iddebench -fig 0 -reps 50 -obs 127.0.0.1:6060    # live pprof/expvar//metrics while it runs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"idde/internal/baseline"
	"idde/internal/cloudlat"
	"idde/internal/experiment"
	"idde/internal/obs"
	"idde/internal/perfbench"
	"idde/internal/rng"
	"idde/internal/serve"
	"idde/internal/units"
	"idde/internal/viz"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "iddebench:", err)
		os.Exit(1)
	}
}

// realMain isolates the error path from os.Exit so the profiling defers
// always flush, even when a run fails.
func realMain() error {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate: 1, 3, 4, 5, 6 or 7 (0 = all)")
		reps      = flag.Int("reps", 10, "randomized repetitions per x value (paper: 50)")
		seed      = flag.Uint64("seed", 2022, "master seed")
		ipBudget  = flag.Duration("ip-budget", 500*time.Millisecond, "IDDE-IP solver budget per instance")
		noIP      = flag.Bool("no-ip", false, "skip the IDDE-IP baseline")
		outDir    = flag.String("out", "", "directory for CSV output (optional)")
		list      = flag.Bool("list", false, "print Table 2 and exit")
		plot      = flag.Bool("plot", false, "also render terminal plots of each figure")
		perfJSON  = flag.String("perfjson", "", "write the Phase 1 perf baseline to this file and exit (skips the figures)")
		perf2JSON = flag.String("perf2json", "", "write the Phase 2 perf baseline to this file and exit (skips the figures)")
		perfTime  = flag.Duration("perftime", 2*time.Second, "per-case time budget for -perfjson/-perf2json/-memjson")
		perfMaxM  = flag.Int("perfmaxm", 0, "skip perf scales with more than this many users (0 = full ladder; CI smoke uses a low cap)")
		memJSON   = flag.String("memjson", "", "write the memory/allocation baseline to this file and exit (skips the figures; nonzero exit on hot-path alloc regressions)")
		serveJSON = flag.String("servejson", "", "write the serving-soak baseline (sustained RPS + healthy/faulted/recovered tail latency under a chaos outage) to this file and exit")
		serveRPS  = flag.Int("serverps", 500, "sustained virtual RPS for -servejson")
		serveDur  = flag.Float64("servedur", 30, "soak duration in virtual seconds for -servejson")
		serveMaxM = flag.Int("servemaxm", 0, "skip serve-soak scales with more than this many users (0 = full ladder; CI smoke uses a low cap)")
		shardJSON = flag.String("shardjson", "", "write the geo-sharded solver baseline (tile ladder vs global, single-tile identity, hot-path allocs) to this file and exit (nonzero exit on divergence or alloc regressions)")
		shardMaxM = flag.Int("shardmaxm", 0, "skip sharding scales with more than this many users (0 = full ladder; CI smoke uses a low cap)")
		memMaxN   = flag.Int("memmaxn", 0, "skip aggregate-row memory scales with more than this many servers (0 = full ladder)")
		memMaxM   = flag.Int("memmaxm", 0, "skip solve-allocation memory scales with more than this many users (0 = full ladder)")
		instMaxM  = flag.Int("instmaxm", 0, "skip instance-layout memory scales with more than this many users (0 = full ladder; CI smoke caps out the M=100000 rung)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		obsAddr   = flag.String("obs", "", "serve live pprof/expvar//metrics on this address for the duration of the run (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	var scope *obs.Scope
	if *obsAddr != "" {
		scope = obs.Metrics()
		srv, err := obs.Serve(*obsAddr, scope)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", srv.Addr())
	}

	if *list {
		fmt.Println(experiment.Table2Markdown())
		return nil
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	if *perfJSON != "" {
		err = runPerf(*perfJSON, *perfTime, *seed, *perfMaxM)
	} else if *perf2JSON != "" {
		err = runPerf2(*perf2JSON, *perfTime, *seed, *perfMaxM)
	} else if *memJSON != "" {
		err = runMem(*memJSON, *perfTime, *seed, *memMaxN, *memMaxM, *instMaxM)
	} else if *serveJSON != "" {
		err = runServe(*serveJSON, *seed, *serveRPS, *serveDur, *serveMaxM)
	} else if *shardJSON != "" {
		err = runShard(*shardJSON, *seed, *shardMaxM)
	} else {
		err = run(*fig, *reps, *seed, *ipBudget, *noIP, *outDir, *plot, scope)
	}
	if err == nil && *memProf != "" {
		err = writeHeapProfile(*memProf)
	}
	return err
}

// writeHeapProfile snapshots the heap after a forced GC so the profile
// reflects retained memory, not transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

// runPerf regenerates the tracked Phase 1 performance baseline.
func runPerf(path string, budget time.Duration, seed uint64, maxM int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	scales := perfbench.Scales()
	if maxM > 0 {
		var kept []experiment.Params
		for _, p := range scales {
			if p.M <= maxM {
				kept = append(kept, p)
			}
		}
		scales = kept
	}
	rep, err := perfbench.RunScales(scales, budget, seed, logf)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	for _, m := range []int{100, 500, 2000} {
		if s, ok := rep.Speedups[fmt.Sprintf("SolvePhase1/M=%d", m)]; ok {
			fmt.Printf("SolvePhase1 speedup at M=%d: %.1fx\n", m, s)
		}
	}
	fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	return nil
}

// runPerf2 regenerates the tracked Phase 2 performance baseline.
func runPerf2(path string, budget time.Duration, seed uint64, maxM int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	scales := perfbench.Phase2Scales()
	if maxM > 0 {
		var kept []experiment.Params
		for _, p := range scales {
			if p.M <= maxM {
				kept = append(kept, p)
			}
		}
		scales = kept
	}
	rep, err := perfbench.RunPhase2Scales(scales, budget, seed, logf)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	for _, p := range scales {
		if s, ok := rep.Speedups[fmt.Sprintf("SolveDelivery/M=%d", p.M)]; ok {
			fmt.Printf("SolveDelivery speedup at M=%d: %.1fx\n", p.M, s)
		}
	}
	fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	return nil
}

// runServe regenerates the tracked serving-soak baseline: the chaos
// acceptance scenario at sustained RPS across the serve scale ladder.
func runServe(path string, seed uint64, rps int, dur float64, maxM int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := perfbench.RunServe(context.Background(), perfbench.ServeConfig{
		Seed:     seed,
		RPS:      rps,
		Duration: units.Seconds(dur),
		MaxM:     maxM,
	}, logf)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	for _, c := range rep.Cases {
		if f := c.Soak.Phase(serve.PhaseFaulted); f != nil {
			h := c.Soak.Phase(serve.PhaseHealthy)
			fmt.Printf("serve n=%d m=%d: healthy p99 %.2fms, faulted p99 %.2fms, heal %d rounds\n",
				c.Params.N, c.Params.M, h.P99Ms, f.P99Ms, c.Soak.MaxDegradedStreak)
		}
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(rep.Cases))
	return nil
}

// runShard regenerates the tracked geo-sharded solver baseline. A
// Shards=1 solve that diverges from the global solver, or a tile-view
// hot path that allocates in steady state, is an error (nonzero exit),
// so the CI bench-smoke fails on regressions.
func runShard(path string, seed uint64, maxM int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := perfbench.RunShard(seed, maxM, logf)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	for _, p := range perfbench.ShardScales() {
		for _, t := range []int{8, 16} {
			if s, ok := rep.Speedups[fmt.Sprintf("ShardSolve/M=%d/tiles=%d", p.M, t)]; ok {
				fmt.Printf("sharded solve speedup at M=%d, %d tiles: %.1fx\n", p.M, t, s)
			}
		}
	}
	fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	return rep.ShardRegression()
}

// runMem regenerates the tracked memory/allocation baseline. A guarded
// hot path that allocates in steady state, a sparse solve diverging
// from the dense reference, or an instance-layout footprint regression
// is an error (nonzero exit), so the CI bench-smoke fails on all three.
func runMem(path string, budget time.Duration, seed uint64, maxN, maxM, instMaxM int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep, err := perfbench.RunMem(budget, seed, maxN, maxM, instMaxM, logf)
	if err != nil {
		return err
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	if r, ok := rep.Reductions["SolveDeliveryAllocs/M=4000"]; ok {
		fmt.Printf("SolveDeliveryAllocs/M=4000: %.1fx fewer allocs than previous baseline\n", r)
	}
	for _, p := range perfbench.InstanceScales() {
		if r, ok := rep.Reductions[fmt.Sprintf("InstanceBytes/M=%d", p.M)]; ok {
			fmt.Printf("instance gain storage at M=%d: %.1fx smaller than the dense-era matrices\n", p.M, r)
		}
	}
	fmt.Printf("wrote %s (%d records)\n", path, len(rep.Records))
	return errors.Join(rep.HotPathRegression(), rep.InstanceRegression())
}

func run(fig, reps int, seed uint64, ipBudget time.Duration, noIP bool, outDir string, plot bool, scope *obs.Scope) error {
	cfg := experiment.Config{Reps: reps, Seed: seed, Obs: scope}
	if noIP {
		cfg.Approaches = baseline.Heuristics()
	} else {
		ip := baseline.NewIDDEIP()
		ip.Budget = ipBudget
		cfg.Approaches = []baseline.Approach{
			ip, baseline.NewIDDEG(), baseline.NewSAA(), baseline.NewCDP(), baseline.NewDUPG(),
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}

	wantSet := map[int]int{3: 1, 4: 2, 5: 3, 6: 4} // figure → set
	var timing []*experiment.SetResult

	if fig == 0 || fig == 1 {
		series := cloudlat.Collect(cloudlat.DefaultTargets(), rng.New(seed))
		fmt.Println(experiment.Fig1Markdown(series))
		if plot {
			labels := make([]string, len(series))
			means := make([]float64, len(series))
			for i, s := range series {
				labels[i] = s.Target.Name
				means[i] = s.Mean.Millis()
			}
			fmt.Println(viz.BarChart("Figure 1: mean end-to-end latency (ms)", labels, means, 40))
		}
		if outDir != "" {
			if err := writeFile(filepath.Join(outDir, "fig1.csv"), fig1CSV(series)); err != nil {
				return err
			}
		}
	}
	for f := 3; f <= 6; f++ {
		if fig != 0 && fig != f && fig != 7 {
			continue
		}
		set, err := experiment.SetByID(wantSet[f])
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running Set #%d (%d reps × %d x-values × %d approaches)...\n",
			set.ID, cfg.Reps, len(set.Values), len(cfg.Approaches))
		sr, err := experiment.RunSet(set, cfg)
		if err != nil {
			return err
		}
		timing = append(timing, sr)
		if fig == 0 || fig == f {
			fmt.Printf("Figure %d(a): %s\n", f, sr.MarkdownTable(experiment.RateMetric))
			fmt.Printf("Figure %d(b): %s\n", f, sr.MarkdownTable(experiment.LatencyMetric))
			if plot {
				for _, m := range []experiment.Metric{experiment.RateMetric, experiment.LatencyMetric} {
					xs, labels, ys := sr.SeriesFor(m)
					series := make([]viz.Series, len(labels))
					for li := range labels {
						series[li] = viz.Series{Label: labels[li], Y: ys[li]}
					}
					fmt.Println(viz.LinePlot(
						fmt.Sprintf("Figure %d: %s", f, m), sr.Set.Vary, xs, series, 60, 14))
				}
			}
			if outDir != "" {
				base := fmt.Sprintf("fig%d", f)
				if err := writeFile(filepath.Join(outDir, base+"a_rate.csv"), sr.CSV(experiment.RateMetric)); err != nil {
					return err
				}
				if err := writeFile(filepath.Join(outDir, base+"b_latency.csv"), sr.CSV(experiment.LatencyMetric)); err != nil {
					return err
				}
			}
		}
	}
	if fig == 0 || fig == 7 {
		fmt.Println(experiment.TimingMarkdown(timing))
		if outDir != "" && len(timing) > 0 {
			var csv string
			for _, sr := range timing {
				csv += fmt.Sprintf("# Set %d\n%s", sr.Set.ID, sr.CSV(experiment.TimeMetric))
			}
			if err := writeFile(filepath.Join(outDir, "fig7_time.csv"), csv); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig1CSV(series []cloudlat.Series) string {
	out := "setting,kind,mean_ms,min_ms,max_ms\n"
	for _, s := range series {
		out += fmt.Sprintf("%s,%s,%.3f,%.3f,%.3f\n",
			s.Target.Name, s.Target.Kind, s.Mean.Millis(), s.Min.Millis(), s.Max.Millis())
	}
	return out
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
