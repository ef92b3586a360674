package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"idde/internal/core"
	"idde/internal/experiment"
	"idde/internal/model"
)

// tiny shrinks a workload to a size a smoke test can afford, keeping
// its shape: global or sharded solve, plan in set-up, outages.
func tiny(sp spec) spec {
	sp.Params = experiment.Params{N: 12, M: 150, K: 4, Density: 1.0}
	sp.Soak.RPS = 100
	if sp.Soak.OutageEvery > 0 {
		sp.Soak.Duration = 12
	}
	sp.Setups = 2
	return sp
}

// declared reads the metric names and units BENCHMARK.json declares
// under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(bench[key], &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func unitsOf(m metrics) map[string]string {
	out := map[string]string{}
	for name, v := range m {
		out[name] = v.Unit
	}
	return out
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2e, layer := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			sp := tiny(sp)
			m, g, err := endToEnd(io.Discard, sp, 1, 2*sp.PassSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if g.Failed != 0 || g.Attempted == 0 {
				t.Fatalf("end-to-end gate: %d failed of %d: %v", g.Failed, g.Attempted, g.Reasons)
			}
			if got := unitsOf(m); !reflect.DeepEqual(got, e2e) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
			}
			for name, v := range m {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
				}
			}

			path := filepath.Join(t.TempDir(), "spans.json")
			m, g, err = perLayer(io.Discard, sp, 1, path)
			if err != nil {
				t.Fatal(err)
			}
			if g.Failed != 0 {
				t.Fatalf("traced gate: %d failed: %v", g.Failed, g.Reasons)
			}
			if got := unitsOf(m); !reflect.DeepEqual(got, layer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, layer)
			}
			var spans struct{ TraceEvents []map[string]any }
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &spans); err != nil || len(spans.TraceEvents) == 0 {
				t.Fatalf("span file: %v, %d events", err, len(spans.TraceEvents))
			}
		})
	}
}

func tinyPlan(t *testing.T) (*model.Instance, *core.Result) {
	t.Helper()
	in, err := build(newTracer(false), tiny(specs[0]).Params, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in, core.Solve(in, core.DefaultOptions())
}

func TestGateCountsInvalidPlan(t *testing.T) {
	in, res := tinyPlan(t)
	var ok gate
	ok.plan(in, res)
	if ok.Failed != 0 {
		t.Fatalf("valid plan failed: %v", ok.Reasons)
	}

	// Attach user 0 to a server that does not cover it (Eq. 1).
	bad := *res
	bad.Strategy.Alloc = res.Strategy.Alloc.Clone()
	for i := 0; i < in.N(); i++ {
		if !in.Top.Covers(i, 0) {
			bad.Strategy.Alloc[0] = model.Alloc{Server: i, Channel: 0}
			break
		}
	}
	var g gate
	g.plan(in, &bad)
	if g.Attempted != 1 || g.Failed != 1 {
		t.Fatalf("invalid plan: %d failed of %d, want 1 of 1", g.Failed, g.Attempted)
	}

	// A plan whose reported quality is not what Evaluate computes.
	off := *res
	off.AvgLatency *= 1.5
	g = gate{}
	g.plan(in, &off)
	if g.Failed != 1 {
		t.Fatalf("misreported L_avg: %d failed, want 1", g.Failed)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	p := tiny(specs[0]).Params
	load := func(seed uint64) []byte {
		in, err := build(newTracer(false), p, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in.Top)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, again, other := load(1), load(1), load(2)
	if string(a) != string(again) {
		t.Error("the same seed generated different inputs")
	}
	if string(a) == string(other) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
	if instanceSeed(1, 0) == instanceSeed(2, 0) || instanceSeed(1, 0) == instanceSeed(1, 1) {
		t.Error("instance seeds collide")
	}
}
