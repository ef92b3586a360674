package placement

import "idde/internal/model"

// DeliverySpec describes one Phase 2 run over a fixed allocation: which
// servers may receive replicas, which replicas are already in place,
// and which oracle and engine evaluate the Eq. 17 rule.
type DeliverySpec struct {
	// Servers lists the candidate servers in enumeration order (which
	// is also the tie-break order); nil means every server.
	Servers []int
	// Base holds replicas already in place. They are replayed into the
	// oracle in ascending (server, item) order, stay placed, and the
	// run's commits are added to Base itself. nil starts from an empty
	// profile.
	Base *model.Delivery
	// NaiveLatency selects the per-request reference oracle
	// (model.LatencyState) instead of the cohort oracle; gains are
	// bit-identical.
	NaiveLatency bool
	// NaiveGreedy selects the literal re-scan (GreedyOpt) instead of
	// CELF (LazyGreedyOpt); the committed sequence is identical.
	NaiveGreedy bool
	// Options is handed to the engine verbatim.
	Options Options
}

// Deliver is the single Phase 2 assembly: it builds the latency oracle
// over (in, alloc), replays spec.Base, enumerates every not-yet-placed
// (server, requested item) candidate, and runs the greedy engine.
// Items nobody requests are skipped: their gain is identically zero, so
// they can never be committed. It returns the delivery profile (Base
// when given) and the engine's Result.
func Deliver(in *model.Instance, alloc model.Allocation, spec DeliverySpec) (*model.Delivery, Result) {
	o := &deliveryOracle{in: in, d: spec.Base}
	if o.d == nil {
		o.d = model.NewDelivery(in.N(), in.K())
	}
	if spec.NaiveLatency {
		o.ls = model.NewLatencyState(in, alloc)
	} else {
		o.ls = model.NewCohortLatencyState(in, alloc)
	}
	if spec.Base != nil {
		for i := 0; i < in.N(); i++ {
			for k := 0; k < in.K(); k++ {
				if o.d.Placed(i, k) {
					o.ls.Commit(i, k)
				}
			}
		}
	}
	requested := make([]bool, in.K())
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			requested[k] = true
		}
	}
	n := in.N()
	if spec.Servers != nil {
		n = len(spec.Servers)
	}
	cands := make([]Candidate, 0, n*in.K())
	for x := 0; x < n; x++ {
		i := x
		if spec.Servers != nil {
			i = spec.Servers[x]
		}
		for k, req := range requested {
			if req && !o.d.Placed(i, k) {
				cands = append(cands, Candidate{Server: i, Item: k})
			}
		}
	}
	if spec.NaiveGreedy {
		return o.d, GreedyOpt(cands, o, spec.Options)
	}
	return o.d, LazyGreedyOpt(cands, o, spec.Options)
}

// deliveryOracle adapts a model.DeliveryOracle and the delivery profile
// under construction to the engine: cost is the item size and
// feasibility the Eq. 6 storage reservation.
type deliveryOracle struct {
	in *model.Instance
	ls model.DeliveryOracle
	d  *model.Delivery
}

func (o *deliveryOracle) Gain(c Candidate) float64 {
	return float64(o.ls.GainOf(c.Server, c.Item))
}

func (o *deliveryOracle) Cost(c Candidate) float64 {
	return float64(o.in.Wl.Items[c.Item].Size)
}

func (o *deliveryOracle) Feasible(c Candidate) bool {
	if o.d.Placed(c.Server, c.Item) {
		return false
	}
	size := o.in.Wl.Items[c.Item].Size
	return o.d.Used(c.Server)+size <= o.in.Wl.Capacity[c.Server]
}

func (o *deliveryOracle) Commit(c Candidate) float64 {
	o.d.Place(c.Server, c.Item, o.in.Wl.Items[c.Item].Size)
	return float64(o.ls.Commit(c.Server, c.Item))
}
