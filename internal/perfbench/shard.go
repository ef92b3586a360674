package perfbench

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/rng"
	"idde/internal/shard"
)

// This file is the sharding dimension of the tracked baseline
// (BENCH_shard.json): end-to-end Phase 1 + Phase 2 wall time of the
// geo-sharded solver across the tile ladder versus the global solver on
// the same instances, the rate/latency cost of the boundary
// approximation, the single-tile identity check (Shards=1 must commit
// the exact global strategy), and zero-alloc guards on the tile games'
// interior hot path (Ledger.BestResponse and Ledger.Benefit over a
// restricted tile view).

// SingleTileCapM bounds the instance size at which the single-tile
// sharded solve is still measured: it exists only to witness
// bit-identity with the global path and costs a full global solve, so
// the top rung — where the global solver alone runs for minutes — skips
// it. The cap is recorded in the report so the asymmetry is explicit.
const SingleTileCapM = 4000

// GlobalCapM bounds the instance size at which the global (tiles=0)
// reference solve is still measured. Above it — the M=10⁵ rung — only
// the sharded solver runs: that rung exists precisely because the
// global solver cannot complete there in bench time, so the Speedups
// entries stop at this cap and the record set above it is sharded-only.
const GlobalCapM = 10000

// ShardMinTilesAboveGlobalCap is the smallest tile count measured on
// rungs past GlobalCapM: small tile counts approach the global solver's
// cost and would dominate the suite's wall time without adding a
// datapoint the lower rungs don't already have.
const ShardMinTilesAboveGlobalCap = 8

// ShardScales is the tracked instance ladder for the sharding
// dimension; N tracks M at the paper's ~1:20 ratio like the Phase 1
// ladder. The top rung rides the CSR gain layout: its region grows by
// sqrt(N/125) per axis (the paper's CBD density held constant, see
// perfbench.InstanceScales) because the dense-era matrices at
// N=5000×M=10⁵ would need 8 GB before the first move evaluation.
func ShardScales() []experiment.Params {
	var ps []experiment.Params
	for _, m := range []int{2000, 4000, 10000} {
		ps = append(ps, experiment.Params{N: m / 20, M: m, K: 5, Density: 1.0})
	}
	ps = append(ps, experiment.Params{
		N: 5000, M: 100000, K: 5, Density: 1.0,
		RegionScale: math.Sqrt(5000.0 / 125),
	})
	return ps
}

// ShardTileLadder is the tracked tile-count ladder (the global solver,
// tiles=0, is always measured alongside it).
func ShardTileLadder() []int { return []int{1, 2, 4, 8, 16} }

// ShardRecord is one measured (scale, tile-count) configuration. Each
// solve runs once — the top rung's global solve is far too slow to
// repeat — so WallNs is a single-shot wall clock, and the game stats
// attached to it carry the structural story (where the evals went).
type ShardRecord struct {
	// Name is "ShardSolve/global" or "ShardSolve/tiles=<t>".
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	K    int    `json:"k"`
	// Tiles is the requested tile count (0 = global solver).
	Tiles int `json:"tiles"`
	// WallNs is the end-to-end Phase 1 + Phase 2 solve time.
	WallNs float64 `json:"wall_ns"`
	// Stage wall times. For sharded records Phase1Ns includes the halo
	// sweeps and Phase2Ns includes the reconcile pass, mirroring how
	// core folds the stages.
	Phase1Ns float64 `json:"phase1_ns,omitempty"`
	Phase2Ns float64 `json:"phase2_ns,omitempty"`
	// Solution quality under the committed strategy.
	AvgRate      float64 `json:"avg_rate"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	Replicas     int     `json:"replicas"`
	// Phase 1 dynamics (tile games only for sharded records).
	Updates     int `json:"updates"`
	Evaluations int `json:"evaluations"`
	// Halo-exchange accounting (sharded records with >1 tile).
	SweepRounds       int  `json:"sweep_rounds,omitempty"`
	SweepUpdates      int  `json:"sweep_updates,omitempty"`
	SweepEvaluations  int  `json:"sweep_evaluations,omitempty"`
	SweepSkippedTiles int  `json:"sweep_skipped_tiles,omitempty"`
	HaloConverged     bool `json:"halo_converged,omitempty"`
	HaloUsers         int  `json:"halo_users,omitempty"`
	FrontierServers   int  `json:"frontier_servers,omitempty"`
}

// ShardInstanceLayout records the gain storage a rung's solves ran on
// (see model.LayoutStats); the top rung is only representable sparse.
type ShardInstanceLayout struct {
	Sparse          bool    `json:"sparse"`
	CutoffMeters    float64 `json:"cutoff_meters,omitempty"`
	NNZ             int64   `json:"nnz"`
	Density         float64 `json:"density"`
	Bytes           int64   `json:"bytes"`
	DenseEquivBytes int64   `json:"dense_equiv_bytes"`
}

// ShardReport is the BENCH_shard.json schema.
type ShardReport struct {
	GoVersion      string        `json:"go_version"`
	GOOS           string        `json:"goos"`
	GOARCH         string        `json:"goarch"`
	GOMAXPROCS     int           `json:"gomaxprocs"`
	Seed           uint64        `json:"seed"`
	HaloRounds     int           `json:"halo_rounds"`
	SingleTileCapM int           `json:"single_tile_cap_m"`
	GlobalCapM     int           `json:"global_cap_m"`
	Records        []ShardRecord `json:"records"`
	// InstanceLayouts maps "M=<m>" to the gain layout the rung's solves
	// ran on.
	InstanceLayouts map[string]ShardInstanceLayout `json:"instance_layouts"`
	// Speedups maps "ShardSolve/M=<m>/tiles=<t>" to global-ns over
	// sharded-ns on the same instance.
	Speedups map[string]float64 `json:"speedups"`
	// SingleTileIdentical maps "M=<m>" to whether the Shards=1 solve
	// committed the exact global strategy (allocation, delivery, rate).
	// Any false entry is a regression: the single-tile path must be the
	// global algorithm, not an approximation of it.
	SingleTileIdentical map[string]bool `json:"single_tile_identical"`
	// HotPathAllocs reports testing.AllocsPerRun for the tile games'
	// interior hot path; the CI bench-smoke fails on any nonzero entry.
	HotPathAllocs map[string]float64 `json:"hot_path_allocs"`
}

// JSON renders the report with stable indentation for committing.
func (r *ShardReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ShardRegression returns an error if the single-tile solve diverged
// from the global solver anywhere, or if a guarded hot path allocates;
// cmd/iddebench turns it into a nonzero exit for the CI bench-smoke.
func (r *ShardReport) ShardRegression() error {
	for key, same := range r.SingleTileIdentical {
		if !same {
			return fmt.Errorf("sharded solve at Shards=1 diverged from the global solver at %s", key)
		}
	}
	for k, v := range r.HotPathAllocs {
		if v > 0 {
			return fmt.Errorf("hot path %s allocates (%.2f allocs/op, want 0)", k, v)
		}
	}
	return nil
}

// shardRecordOf maps one core.Solve result onto the record schema.
func shardRecordOf(p experiment.Params, tiles int, wall time.Duration, res *core.Result) ShardRecord {
	name := "ShardSolve/global"
	if tiles > 0 {
		name = fmt.Sprintf("ShardSolve/tiles=%d", tiles)
	}
	rec := ShardRecord{
		Name: name, N: p.N, M: p.M, K: p.K, Tiles: tiles,
		WallNs:       float64(wall.Nanoseconds()),
		Phase1Ns:     float64(res.Phase1Time.Nanoseconds()),
		Phase2Ns:     float64(res.Phase2Time.Nanoseconds()),
		AvgRate:      float64(res.AvgRate),
		AvgLatencyMs: res.AvgLatency.Millis(),
		Replicas:     res.Replicas,
		Updates:      res.Phase1.Updates,
		Evaluations:  res.Phase1.Evaluations,
	}
	if st := res.Shard; st != nil {
		rec.SweepRounds = st.SweepRounds
		rec.SweepUpdates = st.SweepUpdates
		rec.SweepEvaluations = st.SweepEvaluations
		rec.SweepSkippedTiles = st.SweepSkippedTiles
		rec.HaloConverged = st.HaloConverged
		rec.HaloUsers = st.HaloUsers
		rec.FrontierServers = st.FrontierServers
	}
	return rec
}

// RunShard executes the sharding suite over every tracked scale with
// M ≤ maxM (0 = full ladder) and the full tile ladder. Progress lines
// go through logf (may be nil).
func RunShard(seed uint64, maxM int, logf func(format string, args ...any)) (*ShardReport, error) {
	return RunShardScales(ShardScales(), ShardTileLadder(), seed, maxM, logf)
}

// RunShardScales executes the sharding suite over explicit scale and
// tile ladders (tests use tiny instances; the committed baseline uses
// ShardScales and ShardTileLadder).
func RunShardScales(scales []experiment.Params, tiles []int, seed uint64, maxM int, logf func(format string, args ...any)) (*ShardReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &ShardReport{
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Seed:                seed,
		HaloRounds:          shard.DefaultHaloRounds,
		SingleTileCapM:      SingleTileCapM,
		GlobalCapM:          GlobalCapM,
		InstanceLayouts:     map[string]ShardInstanceLayout{},
		Speedups:            map[string]float64{},
		SingleTileIdentical: map[string]bool{},
		HotPathAllocs:       map[string]float64{},
	}

	for _, p := range scales {
		if maxM > 0 && p.M > maxM {
			logf("%-24s N=%-4d M=%-6d skipped (max M=%d)", "ShardSolve", p.N, p.M, maxM)
			continue
		}
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %v: %w", p, err)
		}
		ls := in.LayoutStats()
		rep.InstanceLayouts[fmt.Sprintf("M=%d", p.M)] = ShardInstanceLayout{
			Sparse: ls.Sparse, CutoffMeters: float64(ls.Cutoff),
			NNZ: ls.NNZ, Density: ls.Density,
			Bytes: ls.Bytes, DenseEquivBytes: ls.DenseEquivBytes,
		}

		var global *core.Result
		var gWall time.Duration
		if p.M <= GlobalCapM {
			start := time.Now()
			global = core.Solve(in, core.DefaultOptions())
			gWall = time.Since(start)
			rep.Records = append(rep.Records, shardRecordOf(p, 0, gWall, global))
			logf("%-24s N=%-4d M=%-6d %10.2fs  rate=%.3f lat=%.2fms evals=%d",
				"ShardSolve/global", p.N, p.M, gWall.Seconds(),
				float64(global.AvgRate), global.AvgLatency.Millis(), global.Phase1.Evaluations)
		} else {
			logf("%-24s N=%-4d M=%-6d skipped (global cap M=%d)",
				"ShardSolve/global", p.N, p.M, GlobalCapM)
		}

		for _, t := range tiles {
			if t == 1 && p.M > SingleTileCapM {
				logf("%-24s N=%-4d M=%-6d skipped (single-tile cap M=%d)",
					"ShardSolve/tiles=1", p.N, p.M, SingleTileCapM)
				continue
			}
			if p.M > GlobalCapM && t < ShardMinTilesAboveGlobalCap {
				logf("%-24s N=%-4d M=%-6d skipped (tiles<%d above global cap)",
					fmt.Sprintf("ShardSolve/tiles=%d", t), p.N, p.M, ShardMinTilesAboveGlobalCap)
				continue
			}
			opt := core.DefaultOptions()
			opt.Shards = t
			start := time.Now()
			res := core.Solve(in, opt)
			wall := time.Since(start)
			rep.Records = append(rep.Records, shardRecordOf(p, t, wall, res))
			speedup := 0.0
			if global != nil {
				speedup = gWall.Seconds() / wall.Seconds()
				rep.Speedups[fmt.Sprintf("ShardSolve/M=%d/tiles=%d", p.M, t)] = speedup
			}
			logf("%-24s N=%-4d M=%-6d %10.2fs  rate=%.3f lat=%.2fms evals=%d sweeps=%d (%.1fx)",
				fmt.Sprintf("ShardSolve/tiles=%d", t), p.N, p.M, wall.Seconds(),
				float64(res.AvgRate), res.AvgLatency.Millis(), res.Phase1.Evaluations,
				res.Shard.SweepRounds, speedup)
			if t == 1 {
				same := reflect.DeepEqual(res.Strategy, global.Strategy) &&
					res.AvgRate == global.AvgRate && res.AvgLatency == global.AvgLatency
				rep.SingleTileIdentical[fmt.Sprintf("M=%d", p.M)] = same
				if !same {
					logf("%-24s N=%-4d M=%-6d DIVERGED from global", "ShardSolve/tiles=1", p.N, p.M)
				}
			}
		}
	}

	// Interior hot-path guards: the tile games spend their time in
	// Ledger.BestResponse (and the Benefit it is pinned to) over a
	// restricted tile view; a warm evaluation must not allocate, or tile
	// solves would churn the heap at scale.
	gp := experiment.Params{N: 24, M: 200, K: 5, Density: 1.0}
	gin, err := experiment.BuildInstance(gp, seed)
	if err != nil {
		return nil, fmt.Errorf("build instance %v: %w", gp, err)
	}
	view := shard.Views(gin, 4)[0]
	s := rng.New(seed * 77)
	l := model.NewLedger(view, model.NewAllocation(view.M()))
	for j := 0; j < view.M(); j++ {
		if vs := view.Top.Coverage[j]; len(vs) > 0 {
			i := vs[s.IntN(len(vs))]
			l.Move(j, model.Alloc{Server: i, Channel: s.IntN(view.Top.Servers[i].Channels)})
		}
	}
	l.WarmAggregates()
	js, as := benefitProbes(view, s, 64)
	var bi int
	rep.HotPathAllocs["Ledger.Benefit/tile-view"] = testing.AllocsPerRun(100, func() {
		_ = l.Benefit(js[bi], as[bi])
		bi = (bi + 1) % len(js)
	})
	rep.HotPathAllocs["Ledger.BestResponse/tile-view"] = testing.AllocsPerRun(100, func() {
		j := js[bi]
		l.BestResponse(j, view.Top.Coverage[j])
		bi = (bi + 1) % len(js)
	})
	for k, v := range rep.HotPathAllocs {
		logf("%-36s %.2f allocs/op", "AllocsPerRun/"+k, v)
	}
	return rep, nil
}
