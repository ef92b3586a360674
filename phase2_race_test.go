package idde

import (
	"reflect"
	"runtime"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/placement"
	"idde/internal/repair"
)

// TestPhase2ParallelSeedAfterReplay is the -race regression for the
// parallel seed scan running on an oracle that has already committed
// replicas: the sharded reconcile and repair both replay a delivery
// before seeding, and the seed workers must then only read the oracle.
// ParallelThreshold 1 forces the fan-out at test scale (the default
// threshold keeps small instances sequential, which hid the bug), and
// the parallel results must equal the sequential ones exactly.
func TestPhase2ParallelSeedAfterReplay(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(4)
	par := placement.NewOptions(placement.Options{Parallel: true, ParallelThreshold: 1})
	seq := placement.NewOptions(placement.Options{})

	p := experiment.Params{N: 20, M: 200, K: 6, Density: 1.0}
	for _, seed := range []uint64{1, 3} {
		in, err := experiment.BuildInstance(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		res := core.Solve(in, core.Options{Shards: 4, Placement: par})
		want := core.Solve(in, core.Options{Shards: 4, Placement: seq})
		if !reflect.DeepEqual(fingerprint(res), fingerprint(want)) {
			t.Fatalf("seed %d: parallel-seeded sharded solve diverges from sequential seeding", seed)
		}
	}

	// Repair's Phase B shape: survivors replayed, then re-placed on the
	// surviving servers, here with the parallel seed scan. Deep budgets
	// leave the survivors room, so the seed scan evaluates cohorts the
	// replay already lowered.
	in, err := experiment.BuildInstance(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	deepenBudgets(in)
	res := core.Solve(in, core.Options{Shards: 4, Placement: par})
	degraded, err := repair.FailServers(in, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, err := repair.RepairDegraded(in, degraded, res.Strategy, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(opt placement.Options) (*model.Delivery, placement.Result) {
		base, up := survivors(degraded, res.Strategy.Delivery)
		return placement.Deliver(degraded, repaired.Alloc, placement.DeliverySpec{
			Servers: up, Base: base, Options: opt,
		})
	}
	dPar, rPar := deliver(par)
	dSeq, rSeq := deliver(seq)
	if !reflect.DeepEqual(rPar.Chosen, rSeq.Chosen) || !reflect.DeepEqual(dPar, dSeq) {
		t.Fatal("parallel-seeded repair placement diverges from sequential seeding")
	}
	if len(rSeq.Chosen) == 0 {
		t.Fatal("repair re-placed nothing; the fixture no longer exercises the seed scan")
	}
	if !reflect.DeepEqual(dSeq, repaired.Delivery) {
		t.Fatal("repair-shaped placement diverges from RepairDegraded's delivery")
	}
}
