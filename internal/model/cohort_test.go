package model

import (
	"math"
	"testing"

	"idde/internal/rng"
)

// relClose compares two latency sums up to summation-order rounding.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// TestCohortMatchesNaiveOracle is the oracle differential test: on
// seeded random instances with partially unallocated users, the cohort
// state must agree with the per-request LatencyState walk — on every
// GainOf, on every realized Commit gain, and on the running totals —
// across a random interleaved commit schedule. Agreement is exact (==):
// the reference walk shares the cohort fold order by design, and
// anything weaker lets mathematically tied candidates resolve
// differently between the optimized and reference greedy paths.
func TestCohortMatchesNaiveOracle(t *testing.T) {
	fixtures := []struct{ n, m, k int }{{12, 90, 4}, {10, 80, 3}}
	for _, seed := range []uint64{1, 2, 3, 7, 21, 2022} {
		f := fixtures[int(seed)%len(fixtures)]
		in := genInstance(t, f.n, f.m, f.k, seed)
		s := rng.New(seed * 101)
		alloc := randomValidAllocation(in, s)
		co := NewCohortLatencyState(in, alloc)
		ref := NewLatencyState(in, alloc)

		if co.Requests() != ref.Requests() {
			t.Fatalf("seed %d: request counts diverge: %d vs %d", seed, co.Requests(), ref.Requests())
		}
		committed := NewDelivery(in.N(), in.K())
		for step := 0; step < 30; step++ {
			// Sweep every candidate's marginal gain.
			for i := 0; i < in.N(); i++ {
				for k := 0; k < in.K(); k++ {
					if gc, gr := co.GainOf(i, k), ref.GainOf(i, k); gc != gr {
						t.Fatalf("seed %d step %d: GainOf(%d,%d) cohort %v != naive %v",
							seed, step, i, k, gc, gr)
					}
				}
			}
			if co.Total() != ref.Total() {
				t.Fatalf("seed %d step %d: totals diverge: %v vs %v", seed, step, co.Total(), ref.Total())
			}
			if co.Avg() != ref.Avg() {
				t.Fatalf("seed %d step %d: averages diverge: %v vs %v", seed, step, co.Avg(), ref.Avg())
			}
			// Commit a random not-yet-placed replica on both states.
			i, k := s.IntN(in.N()), s.IntN(in.K())
			if committed.Placed(i, k) {
				continue
			}
			committed.Place(i, k, in.Wl.Items[k].Size)
			if cc, cr := co.Commit(i, k), ref.Commit(i, k); cc != cr {
				t.Fatalf("seed %d step %d: Commit(%d,%d) gain cohort %v != naive %v",
					seed, step, i, k, cc, cr)
			}
		}
	}
}

// TestCohortUnallocatedUsersOnly pins the degenerate corner: with no
// user allocated, no edge replica can serve anyone (Eq. 8's edge option
// is +Inf), so every gain is exactly zero and the total stays at the
// all-cloud latency.
func TestCohortUnallocatedUsersOnly(t *testing.T) {
	in := genInstance(t, 8, 40, 3, 9)
	co := NewCohortLatencyState(in, NewAllocation(in.M()))
	var cloud float64
	for _, items := range in.Wl.Requests {
		for _, k := range items {
			cloud += float64(in.CloudLatency(k))
		}
	}
	if !relClose(float64(co.Total()), cloud) {
		t.Fatalf("all-cloud total %v != %g", co.Total(), cloud)
	}
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if g := co.GainOf(i, k); g != 0 {
				t.Fatalf("unallocated users yielded gain %v for (%d,%d)", g, i, k)
			}
			if g := co.Commit(i, k); g != 0 {
				t.Fatalf("unallocated users yielded commit gain %v for (%d,%d)", g, i, k)
			}
		}
	}
	if !relClose(float64(co.Total()), cloud) {
		t.Fatalf("total drifted to %v after zero-gain commits", co.Total())
	}
}

// TestCohortTinyInstanceExact replays the hand-checkable tiny instance:
// with one request per (item, server) cohort there is no summation-order
// freedom, so cohort and naive gains must be bit-identical.
func TestCohortTinyInstanceExact(t *testing.T) {
	in := tinyInstance(t)
	alloc := Allocation{
		{Server: 0, Channel: 0},
		{Server: 1, Channel: 0},
		{Server: 1, Channel: 1},
	}
	co := NewCohortLatencyState(in, alloc)
	ref := NewLatencyState(in, alloc)
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if gc, gr := co.GainOf(i, k), ref.GainOf(i, k); gc != gr {
				t.Fatalf("GainOf(%d,%d): cohort %v != naive %v", i, k, gc, gr)
			}
		}
	}
	if gc, gr := co.Commit(0, 0), ref.Commit(0, 0); gc != gr {
		t.Fatalf("commit gains diverge: %v vs %v", gc, gr)
	}
	// After the commit the improved cohorts sit exactly at the replica's
	// edge latency; a re-commit of the same replica must gain zero.
	if g := co.Commit(1, 1); g != ref.Commit(1, 1) {
		t.Fatal("second commit gains diverge")
	}
	if co.Total() != ref.Total() {
		t.Fatalf("totals diverge: %v vs %v", co.Total(), ref.Total())
	}
}

// TestCohortCommitRefoldsUniformSum drives the cohorts through a random
// commit ladder and checks the uniform-cohort invariant directly: every
// cohort's cached sum is the left-to-right fold of n copies of its
// current value, and the current value never exceeds the cloud latency
// it started from.
func TestCohortCommitRefoldsUniformSum(t *testing.T) {
	in := genInstance(t, 10, 80, 3, 21)
	s := rng.New(33)
	co := NewCohortLatencyState(in, randomValidAllocation(in, s))
	for step := 0; step < 20; step++ {
		co.Commit(s.IntN(in.N()), s.IntN(in.K()))
	}
	for k := range co.cohorts {
		for ci := range co.cohorts[k] {
			c := &co.cohorts[k][ci]
			if c.n <= 0 || c.cur > float64(in.CloudLatency(k)) {
				t.Fatalf("item %d cohort %d: malformed state n=%d cur=%g", k, ci, c.n, c.cur)
			}
			if want := foldUniform(c.cur, int(c.n)); c.sum != want {
				t.Fatalf("item %d cohort %d: sum %g, want fold %g", k, ci, c.sum, want)
			}
			if ci > 0 && c.server <= co.cohorts[k][ci-1].server {
				t.Fatalf("item %d: cohorts not ascending by server at %d", k, ci)
			}
		}
	}
}
