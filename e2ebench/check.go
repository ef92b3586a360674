package main

import (
	"fmt"
	"math"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/serve"
	"idde/internal/units"
)

// rateTolerance is the relative distance allowed between the R_avg the
// solver reports and Instance.Evaluate's. The solver reads R_avg from
// its incremental ledger, whose interference aggregates were updated
// move by move; a fresh ledger sums them in another order and lands
// 1-2 ULPs away on about half of all instances, global and sharded
// alike. L_avg must match exactly.
const rateTolerance = 1e-12

// gate counts the operations a run attempted and those whose output
// was wrong. A plan is one operation, as is each soak request and
// each re-plan attempt.
type gate struct {
	Attempted, Failed int64
	Reasons           []string
}

func (g *gate) fail(n int64, format string, args ...any) {
	g.Failed += n
	if len(g.Reasons) < 8 {
		g.Reasons = append(g.Reasons, fmt.Sprintf(format, args...))
	}
}

func (g *gate) add(o gate) {
	g.Attempted += o.Attempted
	g.Failed += o.Failed
	g.Reasons = append(g.Reasons, o.Reasons...)
}

// plan checks a solved plan: it must pass Instance.Check, and the
// quality the solver reports must be what Instance.Evaluate computes.
// It returns Evaluate's R_avg and L_avg.
func (g *gate) plan(in *model.Instance, res *core.Result) (units.Rate, units.Seconds) {
	g.Attempted++
	if err := in.Check(res.Strategy); err != nil {
		g.fail(1, "plan fails Check: %v", err)
		return 0, 0
	}
	rate, lat := in.Evaluate(res.Strategy)
	if math.Abs(float64(res.AvgRate-rate)) > rateTolerance*float64(rate) || res.AvgLatency != lat {
		g.fail(1, "solver reports R_avg=%v L_avg=%v, Evaluate gives %v %v",
			res.AvgRate, res.AvgLatency, rate, lat)
	}
	return rate, lat
}

// soak checks a soak report: every issued request was served, the
// soak issued the load it was asked for, and no re-plan failed.
func (g *gate) soak(sp soakSpec, rep *serve.SoakReport) {
	replans := rep.Replans + rep.ReplanErrors + rep.ReplanPanics
	g.Attempted += rep.Issued + replans
	if want := int64(sp.RPS) * int64(sp.Duration); rep.Issued != want {
		g.fail(abs(want-rep.Issued), "soak issued %d requests, want %d", rep.Issued, want)
	}
	if rep.Issued != rep.Served {
		g.fail(abs(rep.Issued-rep.Served), "soak served %d of %d requests", rep.Served, rep.Issued)
	}
	if n := rep.ReplanErrors + rep.ReplanPanics; n > 0 {
		g.fail(n, "%d re-plan errors, %d re-plan panics", rep.ReplanErrors, rep.ReplanPanics)
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// ulps is the distance between two finite doubles of one sign,
// counted in representable values.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// fingerprint is the deterministic work a pass did. Passes of the same
// code at the same seed must produce equal fingerprints.
type fingerprint struct {
	Updates          int    `json:"game_updates"`
	Rounds           int    `json:"game_rounds"`
	Evaluations      int    `json:"game_evaluations"`
	Replicas         int    `json:"replicas"`
	GainEvals        int    `json:"gain_evals"`
	SweepRounds      int    `json:"sweep_rounds"`
	SweepUpdates     int    `json:"sweep_updates"`
	SweepEvaluations int    `json:"sweep_evaluations"`
	SweepSkipped     int    `json:"sweep_skipped_tiles"`
	RateBits         string `json:"avg_rate_bits"`
	LatencyBits      string `json:"avg_latency_bits"`
	Replans          int64  `json:"serve_replans"`
	OutcomeHash      string `json:"outcome_hash"`
}

func fingerprintOf(o *outcome) fingerprint {
	r := o.Res
	fp := fingerprint{
		Updates:     r.Phase1.Updates,
		Rounds:      r.Phase1.Rounds,
		Evaluations: r.Phase1.Evaluations,
		Replicas:    r.Replicas,
		GainEvals:   r.GainEvaluations,
		RateBits:    fmt.Sprintf("%016x", math.Float64bits(float64(o.Rate))),
		LatencyBits: fmt.Sprintf("%016x", math.Float64bits(float64(o.Lat))),
	}
	if s := r.Shard; s != nil {
		fp.SweepRounds, fp.SweepUpdates = s.SweepRounds, s.SweepUpdates
		fp.SweepEvaluations, fp.SweepSkipped = s.SweepEvaluations, s.SweepSkippedTiles
	}
	if o.Report != nil {
		fp.Replans = o.Report.Replans
		fp.OutcomeHash = o.Report.OutcomeHash
	}
	return fp
}
