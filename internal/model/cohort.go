package model

import "idde/internal/units"

// DeliveryOracle is the Phase 2 marginal-gain oracle contract shared by
// the cohort-aggregated state and the per-request reference walk
// (LatencyState). Both expose Eq. 17 marginal gains and commits over a
// growing delivery profile for a fixed allocation; they differ only in
// evaluation cost.
type DeliveryOracle interface {
	// GainOf reports the total latency reduction of adding replica
	// σ_{i,k}=1 (the numerator of Eq. 17).
	GainOf(i, k int) units.Seconds
	// Commit applies replica σ_{i,k}=1 and returns the realized gain.
	Commit(i, k int) units.Seconds
	// Requests reports the total request count (denominator of Eq. 9).
	Requests() int
	// Total reports Σ_j Σ_k ζ_{j,k}·L_{j,k} (numerator of Eq. 9).
	Total() units.Seconds
	// Avg reports Eq. (9) under the committed profile.
	Avg() units.Seconds
}

var (
	_ DeliveryOracle = (*LatencyState)(nil)
	_ DeliveryOracle = (*CohortLatencyState)(nil)
)

// CohortLatencyState is the optimized Phase 2 latency oracle: the same
// incremental Eq. 8/Eq. 17 semantics as LatencyState, evaluated in
// O(cohorts-of-item) per GainOf instead of O(requests-of-item).
//
// Requests are grouped into cohorts keyed by (item, serving server a).
// Eq. 8 factorizes as EdgeLatency(k,o,a) = PathCost[o][a]·size_k, so
// every request in a cohort sees the same latency from any replica.
// Every cohort starts uniform (all requests at the item's cloud
// latency) and every Commit lowers the improved requests to the
// replica's uniform threshold, so a cohort is always n copies of one
// current value cur: the state is (n, cur) plus the cached fold sum.
// Unallocated users' requests are pinned at cloud latency forever (the
// edge option of Eq. 8 is +Inf for them) and never enter a cohort —
// they only contribute to the Requests/Total accounting.
//
// Gains are bit-identical to LatencyState's: the reference walk groups
// its per-request fold by serving server in the same ascending order
// and applies the same sum − count·t arithmetic (see the LatencyState
// type comment), so even mathematically tied candidates resolve the
// same way on both paths and the committed replica sequences match
// exactly. The differential suites pin both properties down.
//
// GainOf only reads, so it is safe for concurrent invocation between
// Commits (the parallel seed scan relies on this).
type CohortLatencyState struct {
	in *Instance
	// cohorts[k] lists item k's cohorts ascending by serving server, as
	// views into one shared backing array.
	cohorts  [][]cohort
	requests int
	total    float64
}

// cohort is one (item, serving server) cohort: n requests, all at the
// current latency cur. sum caches foldUniform(cur, n).
type cohort struct {
	server int32
	n      int32
	cur    float64
	sum    float64
}

// foldUniform computes the left-to-right fold v+v+…+v over n terms —
// bitwise the per-request fold the reference walk performs, which n·v
// (one rounding instead of n−1) is not.
func foldUniform(v float64, n int) float64 {
	var s float64
	for ; n > 0; n-- {
		s += v
	}
	return s
}

// NewCohortLatencyState builds the cohort oracle for the given
// allocation with an empty delivery profile. Every per-item slice is a
// view into one backing array sized in a counting pass, so
// construction costs a fixed handful of allocations regardless of the
// item or cohort count.
func NewCohortLatencyState(in *Instance, alloc Allocation) *CohortLatencyState {
	ls := &CohortLatencyState{
		in:      in,
		cohorts: make([][]cohort, in.K()),
	}
	// Tally requests per (item, serving server) for allocated users,
	// accumulating the Requests/Total denominators in the same j-order
	// fold as LatencyState so the totals agree bitwise.
	n := in.N()
	counts := make([]int32, in.K()*n)
	totalCohorts := 0
	for j, items := range in.Wl.Requests {
		a := alloc[j]
		for _, k := range items {
			ls.requests++
			ls.total += float64(in.CloudLatency(k))
			if !a.Allocated() {
				continue
			}
			if counts[k*n+a.Server] == 0 {
				totalCohorts++
			}
			counts[k*n+a.Server]++
		}
	}
	buf := make([]cohort, totalCohorts)
	co := 0
	for k := 0; k < in.K(); k++ {
		cloud := float64(in.CloudLatency(k))
		start := co
		for a, cnt := range counts[k*n : (k+1)*n] {
			if cnt == 0 {
				continue
			}
			buf[co] = cohort{server: int32(a), n: cnt, cur: cloud, sum: foldUniform(cloud, int(cnt))}
			co++
		}
		if co > start {
			ls.cohorts[k] = buf[start:co:co]
		}
	}
	return ls
}

// Requests reports the total request count (the denominator of Eq. 9).
func (ls *CohortLatencyState) Requests() int { return ls.requests }

// Total reports Σ_j Σ_k ζ_{j,k}·L_{j,k}, the numerator of Eq. 9.
func (ls *CohortLatencyState) Total() units.Seconds { return units.Seconds(ls.total) }

// Avg reports Eq. (9), the average data delivery latency.
func (ls *CohortLatencyState) Avg() units.Seconds {
	if ls.requests == 0 {
		return 0
	}
	return units.Seconds(ls.total / float64(ls.requests))
}

// GainOf reports the total latency reduction of adding replica
// σ_{i,k}=1: per cohort the threshold t = PathCost[i][a]·size_k is one
// multiplication against the hoisted path-cost row, and a uniform
// cohort either improves entirely (sum − n·t) or not at all.
func (ls *CohortLatencyState) GainOf(i, k int) units.Seconds {
	row := ls.in.Top.PathCost[i]
	size := float64(ls.in.Wl.Items[k].Size)
	var gain float64
	cs := ls.cohorts[k]
	for ci := range cs {
		c := &cs[ci]
		t := float64(row[c.server]) * size
		if t >= c.cur {
			continue // nothing improves: the cohort is uniform at cur
		}
		gain += c.sum - float64(c.n)*t
	}
	return units.Seconds(gain)
}

// Commit applies replica σ_{i,k}=1: each improved cohort collapses to
// the threshold value and refolds its sum, so GainOf never writes.
func (ls *CohortLatencyState) Commit(i, k int) units.Seconds {
	row := ls.in.Top.PathCost[i]
	size := float64(ls.in.Wl.Items[k].Size)
	var gain float64
	cs := ls.cohorts[k]
	for ci := range cs {
		c := &cs[ci]
		t := float64(row[c.server]) * size
		if t >= c.cur {
			continue
		}
		gain += c.sum - float64(c.n)*t
		c.cur = t
		c.sum = foldUniform(t, int(c.n))
	}
	ls.total -= gain
	return units.Seconds(gain)
}
