package model

import (
	"fmt"

	"idde/internal/units"
)

// request is one (user, item) demand: a single ζ_{j,k}=1 entry.
type request struct {
	j, k int
}

// itemGroup indexes one item's requests that share a serving server —
// the same partition the cohort oracle aggregates over.
type itemGroup struct {
	server int
	reqs   []int // indices into LatencyState.reqs / .cur
}

// LatencyState incrementally tracks, for a fixed allocation profile and
// a growing delivery profile, every request's current best delivery
// latency (Eq. 8) and their sum. It is the per-request reference oracle
// behind the greedy Phase 2 rule (Eq. 17): the marginal latency
// reduction of a candidate replica is computed by walking every request
// for that item, and committing a replica updates the state in the same
// time.
//
// The walk visits requests grouped by serving server, ascending, and
// folds each group's current latencies before subtracting count·t —
// exactly the operations (and order) of the cohort oracle's cached
// fold. Within a group every request carries the same current value
// (they share one latency trajectory), so the two evaluators produce
// bit-identical gains: a last-ulp divergence would otherwise flip
// argmax decisions between the optimized and reference paths whenever
// two candidates tie mathematically.
//
// Requests start at their cloud latency (σ_{cloud,k}=1 per Eq. 7), so
// the "latency constraint" — an edge replica is only ever used when it
// beats the cloud — holds by construction of the min.
type LatencyState struct {
	in    *Instance
	alloc Allocation
	reqs  []request
	// groups[k] partitions item k's allocated requests by serving
	// server, ascending. Unallocated users' requests are absent (their
	// Eq. 8 edge option is +Inf, so they never improve); they still
	// count in reqs and total.
	groups [][]itemGroup
	cur    []units.Seconds
	total  float64
}

// NewLatencyState builds the state for the given allocation with an
// empty delivery profile.
func NewLatencyState(in *Instance, alloc Allocation) *LatencyState {
	ls := &LatencyState{
		in:     in,
		alloc:  alloc.Clone(),
		groups: make([][]itemGroup, in.K()),
	}
	byServer := make([][][]int, in.K()) // item → server → request indices
	for j, items := range in.Wl.Requests {
		a := ls.alloc[j]
		for _, k := range items {
			idx := len(ls.reqs)
			ls.reqs = append(ls.reqs, request{j: j, k: k})
			if !a.Allocated() {
				continue
			}
			if byServer[k] == nil {
				byServer[k] = make([][]int, in.N())
			}
			byServer[k][a.Server] = append(byServer[k][a.Server], idx)
		}
	}
	for k := range byServer {
		for a, idxs := range byServer[k] {
			if len(idxs) > 0 {
				ls.groups[k] = append(ls.groups[k], itemGroup{server: a, reqs: idxs})
			}
		}
	}
	ls.cur = make([]units.Seconds, len(ls.reqs))
	for idx, r := range ls.reqs {
		ls.cur[idx] = in.CloudLatency(r.k)
		ls.total += float64(ls.cur[idx])
	}
	return ls
}

// Requests reports the total request count (the denominator of Eq. 9).
func (ls *LatencyState) Requests() int { return len(ls.reqs) }

// Total reports Σ_j Σ_k ζ_{j,k}·L_{j,k}, the numerator of Eq. 9.
func (ls *LatencyState) Total() units.Seconds { return units.Seconds(ls.total) }

// Avg reports Eq. (9), the average data delivery latency (0 when there
// are no requests).
func (ls *LatencyState) Avg() units.Seconds {
	if len(ls.reqs) == 0 {
		return 0
	}
	return units.Seconds(ls.total / float64(len(ls.reqs)))
}

// GainOf reports the total latency reduction (over all requests) of
// adding replica σ_{i,k}=1 to the current delivery profile — the
// numerator of Eq. 17. Per serving-server group: fold the improved
// requests' current latencies, then subtract count·t (see the type
// comment for why the grouping matters).
func (ls *LatencyState) GainOf(i, k int) units.Seconds {
	var gain float64
	for _, g := range ls.groups[k] {
		t := ls.in.EdgeLatency(k, i, g.server)
		var sum float64
		n := 0
		for _, idx := range g.reqs {
			if ls.cur[idx] > t {
				sum += float64(ls.cur[idx])
				n++
			}
		}
		if n > 0 {
			gain += sum - float64(n)*float64(t)
		}
	}
	return units.Seconds(gain)
}

// Commit applies replica σ_{i,k}=1, updating every affected request.
// It returns the realized total latency reduction (equal to a GainOf
// call made immediately before).
func (ls *LatencyState) Commit(i, k int) units.Seconds {
	var gain float64
	for _, g := range ls.groups[k] {
		t := ls.in.EdgeLatency(k, i, g.server)
		var sum float64
		n := 0
		for _, idx := range g.reqs {
			if ls.cur[idx] > t {
				sum += float64(ls.cur[idx])
				n++
				ls.cur[idx] = t
			}
		}
		if n > 0 {
			gain += sum - float64(n)*float64(t)
		}
	}
	ls.total -= gain
	return units.Seconds(gain)
}

// RequestLatency evaluates Eq. (8) from scratch for user j and item k
// under the given profiles with Collaborative delivery: the minimum over
// edge servers holding the item and the cloud.
func (in *Instance) RequestLatency(alloc Allocation, d *Delivery, j, k int) units.Seconds {
	return in.RequestLatencyMode(alloc, d, j, k, Collaborative)
}

// RequestLatencyMode evaluates the delivery latency of request (j,k)
// under the given delivery mode (see DeliveryMode). In every mode the
// cloud remains the fallback, so the Eq. 8 latency constraint (never
// worse than cloud) holds.
func (in *Instance) RequestLatencyMode(alloc Allocation, d *Delivery, j, k int, mode DeliveryMode) units.Seconds {
	best := in.CloudLatency(k)
	a := alloc[j]
	if !a.Allocated() {
		return best
	}
	switch mode {
	case Collaborative:
		for o := 0; o < in.N(); o++ {
			if d.Placed(o, k) {
				if l := in.EdgeLatency(k, o, a.Server); l < best {
					best = l
				}
			}
		}
	case CoverageLocal:
		for _, o := range in.Top.Coverage[j] {
			if d.Placed(o, k) {
				return 0 // direct over-the-air delivery from a covering holder
			}
		}
	case ServerLocal:
		if d.Placed(a.Server, k) {
			return 0
		}
	default:
		panic(fmt.Sprintf("model: unknown delivery mode %d", int(mode)))
	}
	return best
}

// AvgLatency evaluates Eq. (9) from scratch with Collaborative delivery.
func (in *Instance) AvgLatency(alloc Allocation, d *Delivery) units.Seconds {
	return in.AvgLatencyMode(alloc, d, Collaborative)
}

// AvgLatencyMode evaluates Eq. (9) under the given delivery mode.
func (in *Instance) AvgLatencyMode(alloc Allocation, d *Delivery, mode DeliveryMode) units.Seconds {
	total := 0.0
	count := 0
	for j, items := range in.Wl.Requests {
		for _, k := range items {
			total += float64(in.RequestLatencyMode(alloc, d, j, k, mode))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return units.Seconds(total / float64(count))
}

// Evaluate reports both objectives for a complete strategy under its
// own delivery mode.
func (in *Instance) Evaluate(s Strategy) (units.Rate, units.Seconds) {
	return in.AvgRate(s.Alloc), in.AvgLatencyMode(s.Alloc, s.Delivery, s.Mode)
}
