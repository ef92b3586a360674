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
	"idde/internal/units"
)

// This file is the memory/allocation dimension of the tracked baseline
// (BENCH_mem.json): it measures the resident footprint of the Phase 1
// interference aggregate rows, the heap allocations of a full Phase 2
// solve, the CSR gain-layout footprint on the region-scaled instance
// ladder (with a sparse-vs-dense full-solve differential), and pins the
// guarded hot paths — Ledger benefit evaluation, DeliveryOracle.GainOf
// and the sparse GainRow reads — at zero steady-state allocations via
// testing.AllocsPerRun.

// PrevSolveAllocsM4000 is the allocs-per-solve of the optimized Phase 2
// engine at the M=4000 rung in the previous committed baseline
// (BENCH_phase2.json as of the Phase 2 perf PR: 37 allocs/op at every
// rung, dominated by the per-item cohort slices of the eager oracle
// constructor). The Reductions entry divides it by the current count.
const PrevSolveAllocsM4000 = 37

// MemScaleNs is the tracked receiver-count ladder for the aggregate-row
// records; M tracks N at the 1:10 ratio of the Phase 1 density probe.
func MemScaleNs() []int { return []int{200, 500, 1000} }

// InstanceScales is the tracked ladder for the instance gain-layout
// records: M tracks N at the paper's ~1:20 ratio and the region grows
// by sqrt(N/125) per axis — the paper's 125-server CBD density held
// constant as the deployment scales out — so coverage disks thin out
// against the map and the CSR rows stay sparse. The top rung is the
// M=10⁵ target the dense [][]float64 era could not represent (its
// gain+distance matrices alone would be 8 GB).
func InstanceScales() []experiment.Params {
	var ps []experiment.Params
	for _, n := range []int{500, 1000, 5000} {
		ps = append(ps, experiment.Params{
			N: n, M: 20 * n, K: 5, Density: 1.0,
			RegionScale: math.Sqrt(float64(n) / 125),
		})
	}
	return ps
}

// MinInstanceBytesReduction is the gate on the top InstanceScales rung:
// the CSR layout must hold the gain storage in at least this many times
// fewer bytes than the dense-era matrices, or InstanceRegression fails
// the bench-smoke.
const MinInstanceBytesReduction = 5.0

// MemRecord is one measured memory configuration.
type MemRecord struct {
	// Name identifies the record, e.g. "AggRows" or
	// "SolveDelivery/optimized".
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	K    int    `json:"k,omitempty"`
	// Aggregate-row accounting (AggRows records), from
	// model.Ledger.AggMemStats after a fill + warm + probe-sweep
	// workload.
	ResidentRows  int   `json:"resident_rows,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	// NsPerOp times one Benefit probe against warm rows (AggRows
	// records) or one full Phase 2 solve.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// Heap cost per operation (SolveDelivery records).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	// Instance gain-layout accounting (InstanceLayout records), from
	// model.Instance.LayoutStats on the region-scaled ladder; NsPerOp
	// times the full topology+workload+CSR build there, and
	// DenseEquivBytes is what the dense era held for the same instance.
	SparseLayout    bool    `json:"sparse_layout,omitempty"`
	CutoffMeters    float64 `json:"cutoff_meters,omitempty"`
	NNZ             int64   `json:"nnz,omitempty"`
	GainDensity     float64 `json:"gain_density,omitempty"`
	LayoutBytes     int64   `json:"layout_bytes,omitempty"`
	DenseEquivBytes int64   `json:"dense_equiv_bytes,omitempty"`
}

// MemReport is the BENCH_mem.json schema.
type MemReport struct {
	GoVersion     string      `json:"go_version"`
	GOOS          string      `json:"goos"`
	GOARCH        string      `json:"goarch"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Seed          uint64      `json:"seed"`
	BudgetPerCase string      `json:"budget_per_case"`
	Records       []MemRecord `json:"records"`
	// HotPathAllocs reports testing.AllocsPerRun for the guarded
	// steady-state paths; the CI bench-smoke fails when any entry is
	// above zero.
	HotPathAllocs map[string]float64 `json:"hot_path_allocs"`
	// Reductions maps "SolveDeliveryAllocs/M=4000" to the previous
	// baseline's allocs-per-solve (PrevSolveAllocsM4000) over the
	// current count, and "InstanceBytes/M=<m>" to the dense-era
	// gain+distance footprint over the CSR layout's bytes at each
	// InstanceScales rung.
	Reductions map[string]float64 `json:"reductions"`
	// SparseDenseIdentical maps "M=<m>/<variant>" to whether a full
	// solve on the CSR layout committed the exact strategy of the dense
	// reference (allocation, delivery, rate, latency). The tight-cutoff
	// variant pushes every interference read through the recompute
	// fallback. Any false entry is a regression: the layouts are
	// read-for-read identical by construction.
	SparseDenseIdentical map[string]bool `json:"sparse_dense_identical"`
}

// JSON renders the report with stable indentation for committing.
func (r *MemReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// memFill assigns every coverable user a deterministic random decision.
func memFill(in *model.Instance, l *model.Ledger, s *rng.Stream) {
	for j := 0; j < in.M(); j++ {
		if vs := in.Top.Coverage[j]; len(vs) > 0 {
			i := vs[s.IntN(len(vs))]
			l.Move(j, model.Alloc{Server: i, Channel: s.IntN(in.Top.Servers[i].Channels)})
		}
	}
}

// RunMem executes the memory suite: aggregate-row records for every
// tracked N ≤ maxN (0 = no cap), Phase 2 solve-allocation records at
// M ∈ {400, 4000} with M ≤ maxM (0 = no cap), instance gain-layout
// records for every InstanceScales rung with M ≤ instMaxM (0 = no cap;
// the CI smoke caps out the M=10⁵ rung), the sparse-vs-dense solve
// differential, and the zero-alloc hot-path guards. budget is the
// per-case time budget of the solve records.
func RunMem(budget time.Duration, seed uint64, maxN, maxM, instMaxM int, logf func(format string, args ...any)) (*MemReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &MemReport{
		GoVersion:            runtime.Version(),
		GOOS:                 runtime.GOOS,
		GOARCH:               runtime.GOARCH,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Seed:                 seed,
		BudgetPerCase:        budget.String(),
		HotPathAllocs:        map[string]float64{},
		Reductions:           map[string]float64{},
		SparseDenseIdentical: map[string]bool{},
	}

	// Aggregate-row residency: for each N, fill a random profile, warm
	// every row and sweep Benefit probes against them.
	const probeBatch = 8192
	for _, n := range MemScaleNs() {
		if maxN > 0 && n > maxN {
			logf("%-28s N=%-5d skipped (max N=%d)", "AggRows", n, maxN)
			continue
		}
		p := experiment.Params{N: n, M: 10 * n, K: 5, Density: 1.0}
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %v: %w", p, err)
		}
		s := rng.New(seed * 77)
		l := model.NewLedger(in, model.NewAllocation(in.M()))
		memFill(in, l, s)
		l.WarmAggregates()
		js, as := benefitProbes(in, s, probeBatch)
		start := time.Now()
		for bi := range js {
			_ = l.Benefit(js[bi], as[bi])
		}
		ns := float64(time.Since(start).Nanoseconds()) / probeBatch
		st := l.AggMemStats()
		rep.Records = append(rep.Records, MemRecord{
			Name: "AggRows", N: p.N, M: p.M, K: p.K,
			ResidentRows: st.Rows, ResidentBytes: st.Bytes, NsPerOp: ns,
		})
		logf("%-28s N=%-5d resident=%d  %.2f MB  %.0f ns/probe",
			"AggRows", n, st.Rows, float64(st.Bytes)/1e6, ns)
	}

	// Phase 2 solve allocations against the previous baseline's
	// constructor-dominated count.
	for _, m := range []int{400, 4000} {
		if maxM > 0 && m > maxM {
			logf("%-28s M=%-5d skipped (max M=%d)", "SolveDelivery", m, maxM)
			continue
		}
		n := m / 40
		if n < 10 {
			n = 10
		}
		p := experiment.Params{N: n, M: m, K: 5, Density: 1.0}
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %v: %w", p, err)
		}
		alloc, _ := core.SolvePhase1(in, core.DefaultOptions())
		const name = "SolveDelivery/optimized"
		var replicas int
		_, ns, ac, bc := measure(budget, 1, func() {
			_, pres := core.SolveDeliveryOpt(in, alloc, core.Options{})
			replicas = len(pres.Chosen)
		})
		rep.Records = append(rep.Records, MemRecord{
			Name: name, N: p.N, M: p.M, K: p.K,
			NsPerOp: ns, AllocsPerOp: ac, BytesPerOp: bc, Replicas: replicas,
		})
		logf("%-28s N=%-4d M=%-6d %10.1f allocs/op  %12.1f B/op", name, p.N, p.M, ac, bc)
		if m == 4000 && ac > 0 {
			rep.Reductions["SolveDeliveryAllocs/M=4000"] = PrevSolveAllocsM4000 / ac
		}
	}

	// Instance gain-layout ladder: build the region-scaled rungs and
	// record the CSR footprint against the dense-era matrices. Build
	// only — solve wall times at these scales are the sharding
	// dimension's story (BENCH_shard.json).
	for _, p := range InstanceScales() {
		if instMaxM > 0 && p.M > instMaxM {
			logf("%-28s N=%-5d M=%-6d skipped (max M=%d)", "InstanceLayout", p.N, p.M, instMaxM)
			continue
		}
		start := time.Now()
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			return nil, fmt.Errorf("build instance %v: %w", p, err)
		}
		buildNs := float64(time.Since(start).Nanoseconds())
		st := in.LayoutStats()
		rep.Records = append(rep.Records, MemRecord{
			Name: "InstanceLayout", N: p.N, M: p.M, K: p.K,
			SparseLayout: st.Sparse, CutoffMeters: float64(st.Cutoff),
			NNZ: st.NNZ, GainDensity: st.Density,
			LayoutBytes: st.Bytes, DenseEquivBytes: st.DenseEquivBytes,
			NsPerOp: buildNs,
		})
		red := 0.0
		if st.Bytes > 0 {
			red = float64(st.DenseEquivBytes) / float64(st.Bytes)
			rep.Reductions[fmt.Sprintf("InstanceBytes/M=%d", p.M)] = red
		}
		logf("%-28s N=%-5d M=%-6d %8.2f MB (dense-equiv %8.2f MB, %5.1fx)  density %.3f  build %.2fs",
			"InstanceLayout", p.N, p.M, float64(st.Bytes)/1e6,
			float64(st.DenseEquivBytes)/1e6, red, st.Density, buildNs/1e9)
	}

	// Sparse/dense differential: a full solve on the CSR layout — at the
	// default cutoff and at the tightest legal one, where every
	// interference read goes through the recompute fallback — must
	// commit the exact strategy of the dense reference.
	dp := experiment.Params{N: 40, M: 800, K: 5, Density: 1.0, RegionScale: 2}
	din, err := experiment.BuildInstance(dp, seed)
	if err != nil {
		return nil, fmt.Errorf("build instance %v: %w", dp, err)
	}
	dres := core.Solve(din.Densified(), core.DefaultOptions())
	for _, v := range []struct {
		name   string
		cutoff units.Meters
	}{
		{"default-cutoff", 0},
		{"tight-cutoff", din.Top.MaxRadius()},
	} {
		sp, err := model.NewSparse(din.Top, din.Wl, din.Radio, v.cutoff)
		if err != nil {
			return nil, fmt.Errorf("sparse instance %v (%s): %w", dp, v.name, err)
		}
		sres := core.Solve(sp, core.DefaultOptions())
		same := reflect.DeepEqual(sres.Strategy, dres.Strategy) &&
			sres.AvgRate == dres.AvgRate && sres.AvgLatency == dres.AvgLatency
		key := fmt.Sprintf("M=%d/%s", dp.M, v.name)
		rep.SparseDenseIdentical[key] = same
		verdict := "identical"
		if !same {
			verdict = "DIVERGED"
		}
		logf("%-28s %s sparse vs dense solve: %s", "SparseDenseDifferential", key, verdict)
	}

	// Hot-path zero-alloc guards on a small warm instance. These mirror
	// the tier-1 tests; the CI bench-smoke fails on any nonzero entry.
	gp := experiment.Params{N: 20, M: 150, K: 6, Density: 1.0}
	gin, err := experiment.BuildInstance(gp, seed)
	if err != nil {
		return nil, fmt.Errorf("build instance %v: %w", gp, err)
	}
	s := rng.New(seed * 77)
	gl := model.NewLedger(gin, model.NewAllocation(gin.M()))
	memFill(gin, gl, s)
	gl.WarmAggregates()
	js, as := benefitProbes(gin, s, 64)
	var bi int
	rep.HotPathAllocs["Ledger.Benefit"] = testing.AllocsPerRun(100, func() {
		_ = gl.Benefit(js[bi], as[bi])
		bi = (bi + 1) % len(js)
	})
	galloc := gl.Alloc()
	is, ks := gainProbes(gin, s, 64)
	cohort := model.NewCohortLatencyState(gin, galloc)
	var gi int
	rep.HotPathAllocs["CohortLatencyState.GainOf"] = testing.AllocsPerRun(100, func() {
		_ = cohort.GainOf(is[gi], ks[gi])
		gi = (gi + 1) % len(is)
	})
	// Sparse gain reads: obtaining a row, a binary-searched in-support
	// read, and the out-of-support recompute fallback must all stay off
	// the heap, or Phase 1's interference loops would churn at scale.
	// The tight cutoff keeps the fallback reachable on the compact map.
	sp, err := model.NewSparse(gin.Top, gin.Wl, gin.Radio, gin.Top.MaxRadius())
	if err != nil {
		return nil, fmt.Errorf("sparse guard instance %v: %w", gp, err)
	}
	cols, _ := sp.GainRow(0).Support()
	inSupport, outSupport := 0, 0
	if len(cols) > 0 {
		inSupport = int(cols[len(cols)/2])
	}
	seen := make([]bool, sp.M())
	for _, c := range cols {
		seen[c] = true
	}
	for j := range seen {
		if !seen[j] {
			outSupport = j
			break
		}
	}
	rep.HotPathAllocs["GainRow.At"] = testing.AllocsPerRun(100, func() {
		r := sp.GainRow(0)
		_ = r.At(inSupport)
		_ = r.At(outSupport)
	})
	for k, v := range rep.HotPathAllocs {
		logf("%-36s %.2f allocs/op", "AllocsPerRun/"+k, v)
	}
	return rep, nil
}

// InstanceRegression returns an error when the sparse instance layout
// regressed: a differential solve diverged from the dense reference, a
// scaling rung fell back to the dense layout, or the top rung's
// footprint reduction dropped below MinInstanceBytesReduction. Rungs
// skipped by the instMaxM cap are not judged, so the CI smoke gates
// only what it measured.
func (r *MemReport) InstanceRegression() error {
	for key, same := range r.SparseDenseIdentical {
		if !same {
			return fmt.Errorf("sparse solve diverged from the dense reference at %s", key)
		}
	}
	for _, rec := range r.Records {
		if rec.Name != "InstanceLayout" {
			continue
		}
		if !rec.SparseLayout {
			return fmt.Errorf("scaling rung N=%d M=%d fell back to the dense gain layout", rec.N, rec.M)
		}
		if red := r.Reductions[fmt.Sprintf("InstanceBytes/M=%d", rec.M)]; rec.M >= 100000 && red < MinInstanceBytesReduction {
			return fmt.Errorf("instance gain bytes at M=%d reduced only %.1fx over dense (want ≥%.0fx)",
				rec.M, red, MinInstanceBytesReduction)
		}
	}
	return nil
}

// HotPathRegression returns an error naming every guarded hot path
// whose steady state allocates; cmd/iddebench turns it into a nonzero
// exit so the CI bench-smoke fails on regressions.
func (r *MemReport) HotPathRegression() error {
	for k, v := range r.HotPathAllocs {
		if v > 0 {
			return fmt.Errorf("hot path %s allocates (%.2f allocs/op, want 0)", k, v)
		}
	}
	return nil
}
