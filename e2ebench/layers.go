package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"idde/internal/core"
	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/shard"
)

// The Benefit probe times benefitCalls Ledger.Benefit calls, cycling
// over a fixed seed-drawn sample of benefitSample (user, candidate)
// pairs.
const (
	benefitSample = 4096
	benefitCalls  = 1 << 20
)

// sink keeps probe results live so no call can be optimized away.
var sink float64

// perLayer makes the traced run. An untraced reference pass and a
// traced pass of the same pipeline give the tracing overhead; probe
// calls then isolate the layers the pipeline reaches only from inside
// core.Solve and serve.RunSoak: APSP, Phase 1 and Phase 2 alone (or
// the sharded solver's stage clocks), the partition, Ledger.Benefit,
// the solve at GOMAXPROCS=1 and the outage campaign's re-plans. It
// writes the spans as Chrome trace JSON to path, prints the per-layer
// table and returns the per-layer metrics.
func perLayer(w io.Writer, sp spec, seed uint64, path string) (metrics, gate, error) {
	var g gate
	runSeed := seed
	seed = instanceSeed(runSeed, 0)
	runtime.GC()
	ref, err := runOnce(newTracer(false), sp, seed, 1)
	if err != nil {
		return nil, g, err
	}
	g.add(ref.Gate)
	runtime.GC()

	tr := newTracer(true)
	var o *outcome
	tr.do("pipeline", func() { o, err = runOnce(tr, sp, seed, 1) })
	if err != nil {
		return nil, g, err
	}
	g.add(o.Gate)
	g.Attempted++
	if fingerprintOf(o) != fingerprintOf(ref) {
		g.fail(1, "the traced pass did different work than the untraced pass")
	}
	if o.Report == nil {
		return metrics{}, g, nil // the plan is invalid and counted: nothing to probe
	}
	m := metrics{}
	tr.do("probes", func() {
		probeBuild(tr, m, o)
		probeSolve(tr, m, sp, o, &g)
		probeBenefit(tr, m, o, seed)
		probeReplans(tr, m, o, &g)
	})

	in, res, rep := o.In, o.Res, o.Report
	m.set("topology.generate_s", "s", tr.sum("topology.Generate").Seconds())
	m.set("workload.generate_s", "s", tr.sum("workload.Generate").Seconds())
	m.set("model.new_s", "s", tr.sum("model.New").Seconds())
	m.set("model.gain_nnz", "count", float64(in.NNZ()))
	m.set("model.layout_bytes", "bytes", float64(in.LayoutStats().Bytes))
	m.set("model.check_s", "s", o.Check.Seconds())
	m.set("model.rate_drift_ulps", "count", float64(ulps(float64(res.AvgRate), float64(o.Rate))))
	m.set("core.solve_s", "s", o.solve().Seconds())
	m.set("core.parallel_speedup", "ratio", m["core.solve_1p_s"].Value/o.solve().Seconds())
	m.set("game.updates", "count", float64(res.Phase1.Updates))
	m.set("game.rounds", "count", float64(res.Phase1.Rounds))
	m.set("game.evaluations", "count", float64(res.Phase1.Evaluations))
	m.set("game.evals_per_update", "ratio", float64(res.Phase1.Evaluations)/float64(max(res.Phase1.Updates, 1)))
	m.set("game.frozen", "count", float64(res.Phase1.Frozen))
	m.set("placement.replicas", "count", float64(res.Replicas))
	m.set("placement.gain_evals", "count", float64(res.GainEvaluations))
	m.set("placement.gain_evals_per_replica", "ratio", float64(res.GainEvaluations)/float64(max(res.Replicas, 1)))
	var st shard.Stats
	if res.Shard != nil {
		st = *res.Shard
	}
	m.set("shard.tiles", "count", float64(st.Tiles))
	m.set("shard.halo_users", "count", float64(st.HaloUsers))
	m.set("shard.frontier_servers", "count", float64(st.FrontierServers))
	m.set("shard.sweep_rounds", "count", float64(st.SweepRounds))
	m.set("shard.sweep_updates", "count", float64(st.SweepUpdates))
	m.set("shard.sweep_evaluations", "count", float64(st.SweepEvaluations))
	m.set("shard.sweep_skipped_tiles", "count", float64(st.SweepSkippedTiles))
	m.set("shard.reconcile_replicas", "count", float64(st.ReconcileReplicas))
	m.set("serve.engine_new_s", "s", o.EngineNew.Seconds())
	m.set("serve.soak_s", "s", o.Soak.Seconds())
	m.set("serve.replans", "count", float64(rep.Replans))
	m.set("serve.retries", "count", float64(rep.Retries))
	m.set("serve.failovers", "count", float64(rep.Failovers))
	m.set("serve.cloud_fallbacks", "count", float64(rep.CloudFallbacks))
	m.set("serve.deadline_exceeded", "count", float64(rep.DeadlineExceeded))
	m.set("serve.breaker_opens", "count", float64(rep.BreakerOpens))
	m.set("serve.max_degraded_streak", "count", float64(rep.MaxDegradedStreak))
	m.set("serve.edge_served_frac", "ratio", 1-float64(rep.CloudServed)/float64(max(rep.Served, 1)))
	// The engine re-plans inside RunSoak, where no call can be timed
	// from outside; the estimate charges each re-plan the median
	// replayed repair.RepairDegraded time.
	replanEst := float64(rep.Replans) * m["repair.replan_s"].Value
	m.set("serve.replan_share_est", "ratio", replanEst/o.Soak.Seconds())
	m.set("serve.request_ns_est", "ns", (o.Soak.Seconds()-replanEst)/float64(max(rep.Issued, 1))*1e9)
	m.set("trace.overhead_s", "s", (o.Wall - ref.Wall).Seconds())
	m.set("trace.overhead_frac", "ratio", (o.Wall-ref.Wall).Seconds()/ref.Wall.Seconds())

	if err := tr.writeChrome(path); err != nil {
		return nil, g, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "workload %s seed %d: traced run on instance 0, GOMAXPROCS=%d\n", sp.Name, runSeed, runtime.GOMAXPROCS(0))
	printLayers(w, tr.layers())
	fmt.Fprintf(w, "shares: Phase 1 is %.2f%% of the split solve; graph.APSP %.6f s is %.2f%% of setup %.6f s; "+
		"%d re-plans x median repair %.6f s is about %.2f%% of soak %.6f s\n",
		100*m["game.phase1_share"].Value, m["graph.apsp_s"].Value, 100*m["graph.apsp_share"].Value, o.setup().Seconds(),
		rep.Replans, m["repair.replan_s"].Value, 100*m["serve.replan_share_est"].Value, o.Soak.Seconds())
	fmt.Fprintf(w, "tracing overhead: traced pass %.6f s - untraced pass %.6f s = %+.6f s\n",
		o.Wall.Seconds(), ref.Wall.Seconds(), (o.Wall - ref.Wall).Seconds())
	fmt.Fprintf(w, "spans: %s\n", path)
	printMetrics(w, m, nil)
	printFingerprint(w, fmt.Sprintf("instance 0 seed %d", seed), fingerprintOf(o))
	return m, g, nil
}

// probeBuild times the all-pairs shortest paths on the generated
// network: topology.Generate runs it inside Finalize, so an extra call
// isolates it.
func probeBuild(tr *tracer, m metrics, o *outcome) {
	top := o.In.Top
	d := tr.do("graph.APSP", func() { sink += float64(len(top.Net.APSP())) })
	m.set("graph.apsp_s", "s", d.Seconds())
	m.set("graph.apsp_share", "ratio", d.Seconds()/o.setup().Seconds())
	m.set("graph.pathcost_bytes", "bytes", 8*float64(top.N())*float64(top.N()))
	cov := 0
	for _, c := range top.Coverage {
		cov += len(c)
	}
	m.set("topology.coverage_mean", "count", float64(cov)/float64(max(top.M(), 1)))
}

// probeSolve splits the solve into its phases and re-solves at
// GOMAXPROCS=1. A global solve is split by calling Phase 1 and Phase 2
// alone; a sharded solve by calling shard.Solve, whose stage clocks
// are the only split of the tile and sweep stages. Each re-run must do
// the same work as the pipeline's core.Solve.
func probeSolve(tr *tracer, m metrics, sp spec, o *outcome, g *gate) {
	in, res := o.In, o.Res
	opt := core.DefaultOptions()
	opt.Shards = sp.Shards
	same := func(what string, p1 game.Stats, replicas, gainEvals int) {
		g.Attempted++
		if p1 != res.Phase1 || replicas != res.Replicas || gainEvals != res.GainEvaluations {
			g.fail(1, "%s did different work than core.Solve", what)
		}
	}
	var p1, p2, s1, s2, sweep, reconcile, partition time.Duration
	var share float64 // of Phase 1 in the split solve
	if sp.Shards == 0 {
		var alloc model.Allocation
		var st game.Stats
		var pres placement.Result
		p1 = tr.do("core.SolvePhase1", func() { alloc, st = core.SolvePhase1(in, opt) })
		p2 = tr.do("core.SolveDeliveryOpt", func() { _, pres = core.SolveDeliveryOpt(in, alloc, opt) })
		same("core.SolvePhase1 + core.SolveDeliveryOpt", st, len(pres.Chosen), pres.Evaluations)
		share = p1.Seconds() / (p1 + p2).Seconds()
	} else {
		partition = tr.do("shard.MakePartition", func() { sink += float64(len(shard.MakePartition(in, sp.Shards).Tiles)) })
		var sres *shard.Result
		d := tr.do("shard.Solve", func() { sres = shard.Solve(in, shard.Config{Tiles: sp.Shards}) })
		same("shard.Solve", sres.Phase1, sres.Replicas, sres.GainEvaluations)
		p1, sweep, p2, reconcile = sres.Phase1Time, sres.SweepTime, sres.Phase2Time, sres.ReconcileTime
		s1, s2 = p1+sweep, p2+reconcile
		share = s1.Seconds() / d.Seconds()
	}
	m.set("game.phase1_share", "ratio", share)
	m.set("game.phase1_s", "s", p1.Seconds())
	m.set("placement.phase2_s", "s", p2.Seconds())
	m.set("shard.partition_s", "s", partition.Seconds())
	m.set("shard.phase1_s", "s", s1.Seconds())
	m.set("shard.sweep_s", "s", sweep.Seconds())
	m.set("shard.phase2_s", "s", s2.Seconds())
	m.set("shard.reconcile_s", "s", reconcile.Seconds())

	var r1 *core.Result
	d := tr.do("core.Solve@GOMAXPROCS=1", func() { withProcs(1, func() { r1 = core.Solve(in, opt) }) })
	same("core.Solve at GOMAXPROCS=1", r1.Phase1, r1.Replicas, r1.GainEvaluations)
	m.set("core.solve_1p_s", "s", d.Seconds())
}

// probeBenefit times Ledger.Benefit on the plan's equilibrium ledger
// over a seed-drawn sample of (user, covering server, channel) pairs.
func probeBenefit(tr *tracer, m metrics, o *outcome, seed uint64) {
	in := o.In
	l := model.NewLedger(in, o.Res.Strategy.Alloc)
	s := rng.New(seed).Split("benefit")
	js := make([]int, 0, benefitSample)
	as := make([]model.Alloc, 0, benefitSample)
	for len(js) < benefitSample {
		j := s.IntN(in.M())
		vs := in.Top.Coverage[j]
		if len(vs) == 0 {
			continue
		}
		i := vs[s.IntN(len(vs))]
		js = append(js, j)
		as = append(as, model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
	}
	pass := func() {
		for k := range js {
			sink += l.Benefit(js[k], as[k])
		}
	}
	pass() // builds the aggregate rows the sample touches
	d := tr.do("model.Ledger.Benefit", func() {
		for c := 0; c < benefitCalls; c += benefitSample {
			pass()
		}
	})
	m.set("model.benefit_ns", "ns", float64(d.Nanoseconds())/benefitCalls)
}

// probeReplans replays the soak's outage campaign through the repair
// layer: at every fault boundary the plan in force is repaired onto the
// fault state, as the engine's re-planner does, and the repaired plan
// must pass Check. Workloads without outages report zeros.
func probeReplans(tr *tracer, m metrics, o *outcome, g *gate) {
	var times, degrades []float64
	moves, replaced := 0, 0
	cur, st := o.In, o.Res.Strategy
	for _, b := range o.Camp.Boundaries()[1:] {
		var (
			fv   *model.Instance
			next model.Strategy
			rep  *repair.Report
			err  error
		)
		g.Attempted++
		dd := tr.do("repair.Degrade", func() { fv, err = repair.Degrade(o.In, o.Camp.DegradationAt(b)) })
		degrades = append(degrades, dd.Seconds())
		if err != nil {
			g.fail(1, "repair.Degrade at t=%v: %v", b, err)
			continue
		}
		d := tr.do("repair.RepairDegraded", func() {
			next, rep, err = repair.RepairDegraded(cur, fv, st, repair.Options{Waves: 2}) // serve's default
		})
		if err == nil {
			err = fv.Check(next)
		}
		if err != nil {
			g.fail(1, "re-plan at t=%v: %v", b, err)
			continue
		}
		times = append(times, d.Seconds())
		moves += rep.Moves
		replaced += rep.ReplacedReplicas
		cur, st = fv, next
	}
	worst := 0.0
	for _, t := range times {
		worst = max(worst, t)
	}
	m.set("repair.replans", "count", float64(len(times)))
	m.set("repair.degrade_s", "s", median(degrades))
	m.set("repair.replan_s", "s", median(times))
	m.set("repair.replan_max_s", "s", worst)
	m.set("repair.moves", "count", float64(moves))
	m.set("repair.replaced_replicas", "count", float64(replaced))
}

// printLayers writes the per-layer table: calls, total and self time,
// and self time as a share of the root span (the traced pipeline, or
// the probe calls made after it) it ran under.
func printLayers(w io.Writer, rows []layerRow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Root != rows[j].Root {
			return rows[i].Root < rows[j].Root // pipeline before probes
		}
		return rows[i].Self > rows[j].Self
	})
	fmt.Fprintf(w, "%-26s %6s %12s %12s %9s  %s\n", "span", "calls", "total_s", "self_s", "self/root", "root")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %6d %12.6f %12.6f %8.2f%%  %s %.6f s\n", r.Name, r.Count,
			r.Total.Seconds(), r.Self.Seconds(), 100*r.Self.Seconds()/r.RootTotal.Seconds(), r.Root, r.RootTotal.Seconds())
	}
}
