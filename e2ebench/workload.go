package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/serve"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// spec is one benchmark workload: the instances it generates from the
// seed, how a plan is solved, and how the plan is then served.
type spec struct {
	Name   string
	Params experiment.Params
	// Shards is core.Options.Shards: 0 solves globally.
	Shards int
	Soak   soakSpec
	// PlanInSetup counts the plan and serve.NewEngine as set-up, for
	// the serving workload, whose measured work is the soak.
	PlanInSetup bool
	// PassSeconds is the nominal time of one pass on a 2-core x86-64
	// box. A run of s seconds measures floor(s/PassSeconds) instances
	// (at least one), so the instances a seed names do not depend on
	// how fast the program is.
	PassSeconds float64
	// Setups is how many times a pass sets its instance up; setup_s is
	// the median over all of them.
	Setups int
}

// soakSpec is the serving load: an open loop at RPS virtual requests
// per second for Duration virtual seconds, with wired-hop loss and
// stalls throughout and, when OutageEvery > 0, OutageServers
// seed-drawn servers down for OutageFor seconds every OutageEvery
// seconds.
type soakSpec struct {
	RPS           int
	Duration      units.Seconds
	OutageEvery   units.Seconds
	OutageFor     units.Seconds
	OutageServers int
}

// linkFaults is the wired-hop fault model of every soak.
var linkFaults = des.Faults{LossProb: 0.05, StallProb: 0.02, StallTime: 0.05, MaxRetries: 2}

// goLive is the short soak without outages that puts a solved plan
// into service on the solve workloads: 10,000 requests, enough for a
// p99.9 with ten samples beyond it.
var goLive = soakSpec{RPS: 10000, Duration: 1}

var specs = []spec{
	{
		Name:        "solve-dense",
		Params:      experiment.Params{N: 100, M: 2000, K: 5, Density: 1.0},
		Soak:        goLive,
		PassSeconds: 3,
		Setups:      5,
	},
	{
		Name: "solve-wide",
		Params: experiment.Params{N: 3000, M: 6000, K: 20, Density: 1.0,
			RegionScale: math.Sqrt(3000.0 / 125)},
		Shards:      16,
		Soak:        goLive,
		PassSeconds: 12,
		Setups:      1,
	},
	{
		Name:        "serve-churn",
		Params:      experiment.Params{N: 100, M: 2000, K: 5, Density: 1.0},
		Shards:      16,
		Soak:        soakSpec{RPS: 10000, Duration: 60, OutageEvery: 4, OutageFor: 2, OutageServers: 2},
		PlanInSetup: true,
		PassSeconds: 7,
		Setups:      3,
	},
}

// instances is how many instances a run of the given length measures.
func (sp spec) instances(seconds float64) int {
	return max(1, int(seconds/sp.PassSeconds))
}

// instanceSeed derives the seed of a run's p-th instance.
func instanceSeed(seed uint64, p int) uint64 {
	return rng.New(seed).SplitN("instance", p).Seed()
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// catalogSeed fixes the item catalog, the server capacities and the
// users' request lists. With K=5 items of 30, 60 or 90 MB, the sizes
// the popular items draw move L_avg twentyfold between seeds; holding
// the catalog leaves the seed to draw the deployment.
const catalogSeed = 2022

// build generates the instance, timing each layer: the topology
// (server and user positions, radio parameters, wired links) from the
// seed and the catalog from catalogSeed, on the streams
// experiment.BuildInstance uses.
func build(tr *tracer, p experiment.Params, seed uint64) (*model.Instance, error) {
	s := rng.New(seed)
	cfg := topology.DefaultGen(p.N, p.M, p.Density)
	if p.RegionScale > 0 && p.RegionScale != 1 {
		cfg.Region.MaxX = cfg.Region.MinX + cfg.Region.Width()*p.RegionScale
		cfg.Region.MaxY = cfg.Region.MinY + cfg.Region.Height()*p.RegionScale
	}
	var (
		top *topology.Topology
		wl  *workload.Workload
		in  *model.Instance
		err error
	)
	tr.do("topology.Generate", func() { top, err = topology.Generate(cfg, s.Split("topology")) })
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	tr.do("workload.Generate", func() {
		wl, err = workload.Generate(workload.DefaultGen(p.K), p.N, p.M, rng.New(catalogSeed).Split("workload"))
	})
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	tr.do("model.New", func() { in, err = model.New(top, wl, radio.Default()) })
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return in, nil
}

// campaign draws the soak's outage timeline from the seed.
func campaign(sp soakSpec, in *model.Instance, seed uint64) *chaos.Campaign {
	c := &chaos.Campaign{Name: "e2ebench", Faults: linkFaults}
	if sp.OutageEvery <= 0 {
		return c
	}
	s := rng.New(seed).Split("outages")
	for at := sp.OutageEvery; at+sp.OutageFor <= sp.Duration; at += sp.OutageEvery {
		picked := s.Perm(in.N())[:sp.OutageServers]
		c.Events = append(c.Events, chaos.Event{At: at, Duration: sp.OutageFor, Kind: chaos.ServerOutage, Servers: picked})
	}
	return c
}

func serveOptions(sp soakSpec, camp *chaos.Campaign, seed uint64) serve.Options {
	return serve.Options{
		Seed:     seed,
		RPS:      sp.RPS,
		Duration: sp.Duration,
		Faults:   linkFaults,
		Campaign: camp,
		SLO:      serve.SLOOptions{Enabled: true},
	}
}

// outcome is everything one pass of a workload produced.
type outcome struct {
	// Setups and Solves hold every set-up and core.Solve time of the
	// pass; the last set-up built the instance the pass goes on with.
	Setups, Solves               []time.Duration
	Check, EngineNew, Soak, Wall time.Duration // Wall: the whole pass

	In     *model.Instance
	Res    *core.Result
	Rate   units.Rate    // Instance.Evaluate R_avg
	Lat    units.Seconds // Instance.Evaluate L_avg
	Camp   *chaos.Campaign
	Report *serve.SoakReport

	Gate gate
}

func (o *outcome) setup() time.Duration { return o.Setups[len(o.Setups)-1] }
func (o *outcome) solve() time.Duration { return o.Solves[len(o.Solves)-1] }

// runOnce executes one pass of the workload on the instance the seed
// names: set it up (setups times), solve, check the plan, put it into
// service and soak it. Wrong outputs are counted in the gate; an error
// means the pass could not run at all.
func runOnce(tr *tracer, sp spec, seed uint64, setups int) (*outcome, error) {
	o := &outcome{}
	var err, engErr error
	var eng *serve.Engine
	start := time.Now()
	solve := func() {
		opt := core.DefaultOptions()
		opt.Shards = sp.Shards
		o.Solves = append(o.Solves, tr.do("core.Solve", func() { o.Res = core.Solve(o.In, opt) }))
	}
	newEngine := func() {
		o.Camp = campaign(sp.Soak, o.In, seed)
		o.EngineNew = tr.do("serve.NewEngine", func() {
			eng, engErr = serve.NewEngine(o.In, o.Res.Strategy, serveOptions(sp.Soak, o.Camp, seed))
		})
	}
	for range max(setups, 1) {
		o.Setups = append(o.Setups, tr.do("setup", func() {
			o.In, eng = nil, nil // let the previous set-up's instance go
			if o.In, err = build(tr, sp.Params, seed); err != nil {
				return
			}
			if sp.PlanInSetup {
				solve()
				newEngine()
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	if !sp.PlanInSetup {
		solve()
	}
	o.Check = tr.do("model.Check+Evaluate", func() { o.Rate, o.Lat = o.Gate.plan(o.In, o.Res) })
	if !sp.PlanInSetup {
		newEngine()
	}
	if engErr != nil {
		o.Wall = time.Since(start)
		if o.Gate.Failed > 0 {
			// NewEngine refuses a plan that fails Check, which the gate
			// has counted already: there is nothing to serve.
			return o, nil
		}
		return nil, fmt.Errorf("serve.NewEngine: %w", engErr)
	}
	o.Soak = tr.do("serve.RunSoak", func() { o.Report, err = eng.RunSoak(context.Background()) })
	o.Wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	o.Gate.soak(sp.Soak, o.Report)
	return o, nil
}

// withProcs runs fn at the given GOMAXPROCS and restores the old value.
func withProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}
