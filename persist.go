package idde

import (
	"encoding/json"
	"fmt"
	"io"

	"idde/internal/model"
)

// strategyJSON is the deployment artifact: everything an edge
// controller needs to enact a formulated strategy.
type strategyJSON struct {
	Approach ApproachName `json:"approach"`
	Mode     string       `json:"deliveryMode"`
	// Alloc[j] is user j's (server, channel); null for unallocated.
	Alloc []*[2]int `json:"alloc"`
	// Replicas lists σ_{i,k}=1 decisions as [server, item].
	Replicas [][2]int `json:"replicas"`
	// Metrics snapshot for human inspection (recomputed on load).
	AvgRateMBps  float64 `json:"avgRateMBps"`
	AvgLatencyMs float64 `json:"avgLatencyMs"`
}

var modeNames = map[model.DeliveryMode]string{
	model.Collaborative: "collaborative",
	model.CoverageLocal: "coverage-local",
	model.ServerLocal:   "server-local",
}

// Save writes the strategy as indented JSON — the artifact a controller
// would enact (user→channel assignments plus the replica list).
func (st *Strategy) Save(w io.Writer) error {
	out := strategyJSON{
		Approach:     st.Approach,
		Mode:         modeNames[st.raw.Mode],
		Alloc:        make([]*[2]int, len(st.raw.Alloc)),
		AvgRateMBps:  st.AvgRateMBps,
		AvgLatencyMs: st.AvgLatencyMs,
	}
	for j, a := range st.raw.Alloc {
		if a.Allocated() {
			out.Alloc[j] = &[2]int{a.Server, a.Channel}
		}
	}
	for _, r := range st.Replicas() {
		out.Replicas = append(out.Replicas, [2]int{r.Server, r.Item})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadStrategy reads a strategy saved by Save, validates it against
// this scenario's constraints (Eqs. 1 and 6) and re-evaluates both
// objectives. Loading a strategy into a different scenario than it was
// formulated for fails validation rather than silently mis-reporting.
func (sc *Scenario) LoadStrategy(r io.Reader) (*Strategy, error) {
	var in strategyJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("idde: decoding strategy: %w", err)
	}
	if len(in.Alloc) != sc.Users() {
		return nil, fmt.Errorf("idde: strategy has %d users, scenario has %d", len(in.Alloc), sc.Users())
	}
	var mode model.DeliveryMode
	found := false
	for m, name := range modeNames {
		if name == in.Mode {
			mode = m
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("idde: unknown delivery mode %q", in.Mode)
	}
	raw := model.Strategy{
		Alloc:    model.NewAllocation(sc.Users()),
		Delivery: model.NewDelivery(sc.Servers(), sc.DataItems()),
		Mode:     mode,
	}
	for j, a := range in.Alloc {
		if a == nil {
			continue
		}
		// Save writes unallocated users only as null, so a negative
		// server or channel is malformed, not a spelling of
		// "unallocated" (Check skips entries with a negative server).
		if a[0] < 0 || a[1] < 0 {
			return nil, fmt.Errorf("idde: user %d has malformed allocation [%d,%d]", j, a[0], a[1])
		}
		raw.Alloc[j] = model.Alloc{Server: a[0], Channel: a[1]}
	}
	for _, rep := range in.Replicas {
		i, k := rep[0], rep[1]
		if i < 0 || i >= sc.Servers() || k < 0 || k >= sc.DataItems() {
			return nil, fmt.Errorf("idde: replica (%d,%d) out of range", i, k)
		}
		if raw.Delivery.Placed(i, k) {
			return nil, fmt.Errorf("idde: duplicate replica (%d,%d)", i, k)
		}
		raw.Delivery.Place(i, k, sc.in.Wl.Items[k].Size)
	}
	if err := sc.in.Check(raw); err != nil {
		return nil, fmt.Errorf("idde: loaded strategy invalid for this scenario: %w", err)
	}
	rate, lat := sc.in.Evaluate(raw)
	return &Strategy{
		Approach:     in.Approach,
		AvgRateMBps:  float64(rate),
		AvgLatencyMs: lat.Millis(),
		raw:          raw,
		sc:           sc,
	}, nil
}
