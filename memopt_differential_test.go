package idde

import (
	"reflect"
	"runtime"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/units"
)

// The end-to-end differential suite for the large-N memory work: the
// O(cohorts) Phase 2 oracle and the worker-pool scans must reproduce the
// reference single-core results exactly — not approximately — across
// allocation, replica sequence and every reported stat.

// deepenBudgets raises every server's storage capacity to at least
// eight mean item sizes, the regime where the greedy loop commits many
// replicas per item and cohorts collapse repeatedly (shallow budgets
// commit an item at most once or twice per server, hiding collapse
// bugs).
func deepenBudgets(in *model.Instance) {
	var total units.MegaBytes
	for _, it := range in.Wl.Items {
		total += it.Size
	}
	deep := 8 * total / units.MegaBytes(len(in.Wl.Items))
	for i := range in.Wl.Capacity {
		if in.Wl.Capacity[i] < deep {
			in.Wl.Capacity[i] = deep
		}
	}
}

// TestDeliveryBatchOracleOnDeepBudgets pins the cohort oracle against
// the LatencyState reference on deep-budget instances (storage ≥ 8×
// mean item size), where commits per item pile up: every oracle×engine
// combination must commit the identical replica sequence, delivery
// profile and bit-identical total gain.
func TestDeliveryBatchOracleOnDeepBudgets(t *testing.T) {
	for _, seed := range []uint64{5, 21, 2022} {
		in, err := experiment.BuildInstance(experiment.Params{N: 15, M: 200, K: 6, Density: 1.0}, seed)
		if err != nil {
			t.Fatal(err)
		}
		deepenBudgets(in)
		alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
		checkCombosAgree(t, "deep-budget", in, alloc)
	}
}

// solveFingerprint is the worker-count- and budget-independent slice of
// a core.Result: everything except wall-clock.
type solveFingerprint struct {
	Alloc       model.Allocation
	Delivery    *model.Delivery
	Phase1      interface{}
	Replicas    int
	Evaluations int
	Reduction   units.Seconds
	AvgRate     units.Rate
	AvgLatency  units.Seconds
}

func fingerprint(res *core.Result) solveFingerprint {
	return solveFingerprint{
		Alloc:       res.Strategy.Alloc,
		Delivery:    res.Strategy.Delivery,
		Phase1:      res.Phase1,
		Replicas:    res.Replicas,
		Evaluations: res.GainEvaluations,
		Reduction:   res.LatencyReduction,
		AvgRate:     res.AvgRate,
		AvgLatency:  res.AvgLatency,
	}
}

// TestSolveGomaxprocsInvariance pins the parallel scans' determinism:
// the dirty-set best-response scan (worker pool) and the parallel CELF
// seed scan chunk by index and merge in index order, so the full solve
// — equilibrium allocation, game stats, replica sequence and every
// objective — must be exactly identical under GOMAXPROCS ∈ {1, 2, 8}.
func TestSolveGomaxprocsInvariance(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 240, K: 6, Density: 1.0}, 2022)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	// Drop both parallel thresholds to 1 so the scans fan out even at
	// this test scale (and even for single-player dirty rounds).
	opt.Game.ParallelThreshold = 1
	opt.Placement = placement.NewOptions(placement.Options{Parallel: true, ParallelThreshold: 1})

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base solveFingerprint
	for gi, g := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(g)
		fp := fingerprint(core.Solve(in, opt))
		if gi == 0 {
			base = fp
			continue
		}
		if !reflect.DeepEqual(fp, base) {
			t.Fatalf("GOMAXPROCS=%d solve diverges from GOMAXPROCS=1:\n%+v\nvs\n%+v", g, fp, base)
		}
	}
}

// TestSolveMatchesPhase2ReferenceEndToEnd runs the full two-phase solve
// and checks the complete result fingerprint against a solve whose
// Phase 2 is the reference (LatencyState oracle + literal re-scan) —
// Phase 1 feeds Phase 2, so any drift would surface in the delivery
// profile too.
func TestSolveMatchesPhase2ReferenceEndToEnd(t *testing.T) {
	in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 200, K: 6, Density: 1.0}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.DefaultOptions()
	ref.NaiveLatency, ref.NaiveGreedy = true, true
	base := fingerprint(core.Solve(in, ref))
	got := fingerprint(core.Solve(in, core.DefaultOptions()))
	if got.Evaluations >= base.Evaluations {
		t.Fatalf("CELF with per-item staleness saved no evaluations over the re-scan: %d vs %d",
			got.Evaluations, base.Evaluations)
	}
	// Only the oracle-call count may differ (the skipped refreshes are
	// provably identical); everything observable — allocation, profile,
	// stats, objectives — must match exactly.
	got.Evaluations = base.Evaluations
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("solve diverges from the Phase 2 reference:\n%+v\nvs\n%+v", got, base)
	}
}
