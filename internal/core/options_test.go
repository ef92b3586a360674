package core

import (
	"testing"

	"idde/internal/game"
)

// TestResolveGameOptionsDefaultsZeroValue: an unset zero-value
// game.Options must be replaced by the engine defaults.
func TestResolveGameOptionsDefaultsZeroValue(t *testing.T) {
	got := game.Options{}.Resolved()
	if got != game.DefaultOptions() {
		t.Fatalf("zero-value options resolved to %+v, want DefaultOptions %+v",
			got, game.DefaultOptions())
	}
}

// TestResolveGameOptionsPreservesExplicitZero is the regression test for
// the silent-replacement bug: an intentionally all-zero configuration
// (sequential winner-takes-all, Epsilon 0, no caps) built with
// game.NewOptions must pass through verbatim instead of being swapped
// for the defaults.
func TestResolveGameOptionsPreservesExplicitZero(t *testing.T) {
	explicit := game.NewOptions(game.Options{})
	got := explicit.Resolved()
	if got != explicit {
		t.Fatalf("explicit all-zero options were replaced: got %+v", got)
	}
	if got.PerPlayerCap != 0 || got.Epsilon != 0 || got.Parallel {
		t.Fatalf("explicit zero configuration mutated: %+v", got)
	}
}

// TestResolveGameOptionsPassesThroughNonZero: any configured options
// survive untouched.
func TestResolveGameOptionsPassesThroughNonZero(t *testing.T) {
	o := game.Options{Policy: game.RoundRobin, Epsilon: 1e-6, MaxUpdates: 5}
	if got := o.Resolved(); got != o {
		t.Fatalf("configured options mutated: got %+v want %+v", got, o)
	}
}

// TestSolveHonorsExplicitZeroGameOptions runs Solve end to end with an
// explicit all-zero game configuration and checks the configuration
// actually took effect: with no PerPlayerCap, no player can be frozen.
func TestSolveHonorsExplicitZeroGameOptions(t *testing.T) {
	in := genInstance(t, 6, 30, 4, 1.0, 3)
	res := Solve(in, Options{Game: game.NewOptions(game.Options{})})
	if res.Phase1.Frozen != 0 {
		t.Fatalf("explicit zero options (no PerPlayerCap) froze %d players — defaults leaked in",
			res.Phase1.Frozen)
	}
	if !res.Phase1.Converged {
		t.Fatalf("dynamics did not converge under explicit zero options: %+v", res.Phase1)
	}
}

// TestReferenceOptionsShape pins down what the reference configuration
// means: literal full-scan rounds over the naive interference evaluator,
// otherwise identical to the defaults.
func TestReferenceOptionsShape(t *testing.T) {
	ref := ReferenceOptions()
	if !ref.Game.FullScan || !ref.NaiveInterference {
		t.Fatalf("ReferenceOptions must force FullScan and NaiveInterference: %+v", ref)
	}
	want := game.DefaultOptions()
	want.FullScan = true
	if ref.Game != want {
		t.Fatalf("ReferenceOptions game config drifted from defaults: %+v", ref.Game)
	}
}
