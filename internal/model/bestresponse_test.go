package model

import (
	"math"
	"testing"

	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

// benefitLoop is the per-candidate Eq. 12 argmax that BestResponse must
// reproduce: one Benefit call per (server, channel), current decision
// first, first strict maximum wins.
func benefitLoop(l *Ledger, j int, cands []int) (Alloc, float64, float64) {
	cur := l.Current(j)
	curB := l.Benefit(j, cur)
	best, bestB := cur, curB
	for _, i := range cands {
		for x := 0; x < l.in.Top.Servers[i].Channels; x++ {
			a := Alloc{Server: i, Channel: x}
			if a == cur {
				continue
			}
			if b := l.Benefit(j, a); b > bestB {
				best, bestB = a, b
			}
		}
	}
	return best, bestB, curB
}

// brInstance builds a random instance for the BestResponse
// differential. channels (optional) overrides |C_i| per server;
// uniform sets a lossless radio (every gain is 1) and equal transmit
// powers, so equal-occupancy channels score exactly equal.
func brInstance(t *testing.T, n, m int, seed uint64, sparse, uniform bool, channels func(i int) int) *Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.2), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	if channels != nil {
		for i := range top.Servers {
			top.Servers[i].Channels = channels(i)
		}
	}
	rm := radio.Default()
	if uniform {
		rm.Loss = 0
		for j := range top.Users {
			top.Users[j].Power = 2
		}
	}
	wl, err := workload.Generate(workload.DefaultGen(3), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var in *Instance
	if sparse {
		in, err = NewSparse(top, wl, rm, top.MaxRadius())
	} else {
		in, err = NewDense(top, wl, rm)
	}
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return in
}

// brCandidates draws the candidate lists a caller may pass for user j:
// the full coverage list, an order-preserving random subset of it (the
// tile-restricted lists), and that subset with one non-covering server
// spliced in (an off-coverage hypothetical).
func brCandidates(in *Instance, j int, s *rng.Stream) [][]int {
	full := in.Top.Coverage[j]
	var sub []int
	for _, i := range full {
		if s.Bool(0.5) {
			sub = append(sub, i)
		}
	}
	foreign := append([]int(nil), sub...)
	covers := make(map[int]bool, len(full))
	for _, i := range full {
		covers[i] = true
	}
	if o := s.IntN(in.N()); !covers[o] {
		at := s.IntN(len(foreign) + 1)
		foreign = append(foreign[:at], append([]int{o}, foreign[at:]...)...)
	}
	return [][]int{full, sub, foreign}
}

// TestBestResponseMatchesBenefitLoop pins the fused kernel to the
// per-candidate Benefit loop bit for bit — decision, best benefit and
// current benefit — across dense and CSR layouts, random move walks
// (allocated and unallocated users), full and restricted candidate
// lists, exact ties, servers wider than the kernel's stack vector, and
// the naive ledger that keeps the loop.
func TestBestResponseMatchesBenefitLoop(t *testing.T) {
	wide := func(i int) int { return []int{3, 12, 2, 8, 9, 1}[i%6] }
	cases := []struct {
		name            string
		sparse, uniform bool
		channels        func(int) int
		naive           bool
		wantTies        bool
	}{
		{name: "dense"},
		{name: "csr", sparse: true},
		{name: "wide-channels", channels: wide},
		{name: "wide-channels-csr", sparse: true, channels: wide},
		{name: "uniform-ties", uniform: true, wantTies: true},
		{name: "naive", naive: true},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := brInstance(t, 14, 160, uint64(40+ci), tc.sparse, tc.uniform, tc.channels)
			s := rng.New(uint64(900 + ci))
			l := NewLedger(in, NewAllocation(in.M()))
			l.SetNaiveInterference(tc.naive)
			fillRandom(in, l, s)
			ties, checked, unalloc := 0, 0, 0
			for step := 0; step < 60; step++ {
				j := s.IntN(in.M())
				l.Move(j, randomMove(in, j, s))
				for probe := 0; probe < 8; probe++ {
					q := s.IntN(in.M())
					if probe == 0 {
						l.Move(q, Unallocated)
					}
					if !l.Current(q).Allocated() {
						unalloc++
					}
					for _, cands := range brCandidates(in, q, s) {
						wa, wb, wc := benefitLoop(l, q, cands)
						ga, gb, gc := l.BestResponse(q, cands)
						if ga != wa || math.Float64bits(gb) != math.Float64bits(wb) ||
							math.Float64bits(gc) != math.Float64bits(wc) {
							t.Fatalf("step %d user %d cands %v: BestResponse = (%v, %x, %x), Benefit loop = (%v, %x, %x)",
								step, q, cands, ga, math.Float64bits(gb), math.Float64bits(gc),
								wa, math.Float64bits(wb), math.Float64bits(wc))
						}
						checked++
						ties += countTies(l, q, cands, wa, wb)
					}
				}
			}
			if unalloc == 0 || unalloc == 60*8 {
				t.Fatalf("%d of %d probed users unallocated; want both kinds", unalloc, 60*8)
			}
			if tc.wantTies && ties == 0 {
				t.Fatalf("no exact ties with the winner in %d probes; the tie-break is unpinned", checked)
			}
		})
	}
}

// countTies counts candidates other than the winner whose benefit
// equals the winning benefit exactly.
func countTies(l *Ledger, j int, cands []int, best Alloc, bestB float64) int {
	n := 0
	if cur := l.Current(j); cur != best && l.Benefit(j, cur) == bestB {
		n++
	}
	for _, i := range cands {
		for x := 0; x < l.in.Top.Servers[i].Channels; x++ {
			if a := (Alloc{Server: i, Channel: x}); a != best && a != l.Current(j) && l.Benefit(j, a) == bestB {
				n++
			}
		}
	}
	return n
}
