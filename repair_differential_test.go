package idde

import (
	"reflect"
	"testing"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/repair"
	"idde/internal/rng"
)

// survivors returns the replicas of d that sit on servers still up in
// degraded, plus the surviving server ids — the starting point of
// repair's Phase B.
func survivors(degraded *model.Instance, d *model.Delivery) (*model.Delivery, []int) {
	base := model.NewDelivery(degraded.N(), degraded.K())
	var up []int
	for i := 0; i < degraded.N(); i++ {
		if degraded.Top.Servers[i].Failed {
			continue
		}
		up = append(up, i)
		for k := 0; k < degraded.K(); k++ {
			if d.Placed(i, k) {
				base.Place(i, k, degraded.Wl.Items[k].Size)
			}
		}
	}
	return base, up
}

// TestRepairDeliveryMatchesReference replays correlated chaos campaigns
// through RepairDegraded, chained epoch to epoch as the serving plane
// re-plans, and checks every repaired strategy against a Phase B
// recomputed with the reference oracle and engine (LatencyState +
// literal re-scan) from the same survivors and repaired allocation: the
// strategies must be equal.
func TestRepairDeliveryMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 17, 2022} {
		in, err := experiment.BuildInstance(experiment.Params{N: 20, M: 200, K: 6, Density: 1.0}, seed)
		if err != nil {
			t.Fatal(err)
		}
		healthy := core.Solve(in, core.DefaultOptions()).Strategy
		for cluster := 1; cluster <= 3; cluster++ {
			camp := chaos.Correlated(in, chaos.GenConfig{
				ClusterSize: cluster, OutageAt: 10, OutageDuration: 30,
				LinkCuts: 2, BrownoutFactor: 0.5, BrownoutDuration: 20,
			}, rng.New(seed*13+uint64(cluster)))
			cur, st := in, healthy
			for _, b := range camp.Boundaries() {
				degraded, err := repair.Degrade(in, camp.DegradationAt(b))
				if err != nil {
					t.Fatal(err)
				}
				next, _, err := repair.RepairDegraded(cur, degraded, st, repair.Options{Waves: 2})
				if err != nil {
					t.Fatal(err)
				}
				base, up := survivors(degraded, st.Delivery)
				ref, _ := placement.Deliver(degraded, next.Alloc, placement.DeliverySpec{
					Servers: up, Base: base, NaiveLatency: true, NaiveGreedy: true,
				})
				want := model.Strategy{Alloc: next.Alloc, Delivery: ref, Mode: st.Mode}
				if !reflect.DeepEqual(next, want) {
					t.Fatalf("seed %d cluster %d t=%v: repaired strategy diverges from the reference Phase B",
						seed, cluster, b)
				}
				cur, st = degraded, next
			}
		}
	}
}
