package core

import (
	"idde/internal/model"
)

// allocGame adapts the IDDE-U game to the generic engine: player j's
// decision set δ_j is every channel of every covering server (Algorithm
// 1 lines 7–12) plus the current decision, and the payoff is the
// benefit function of Eq. (12). It also implements game.Localized, so
// the engine's dirty-set scheduler re-evaluates only the players a
// commit can actually perturb.
type allocGame struct {
	in *model.Instance
	l  *model.Ledger
	// aff is the reusable Affected buffer (Affected/Apply are
	// serialized by the engine).
	aff []int
	// tracePotential adds the Eq. 13 potential to every traced round
	// (see Options.TracePotential); RoundMetrics is only invoked on
	// traced runs, so the cost never reaches production paths.
	tracePotential bool
}

func (g *allocGame) NumPlayers() int { return g.in.M() }

func (g *allocGame) Best(j int) (model.Alloc, float64, float64) {
	return g.l.BestResponse(j, g.in.Top.Coverage[j])
}

func (g *allocGame) Apply(j int, a model.Alloc) { g.l.Move(j, a) }

// RoundMetrics implements game.RoundMetrics: every traced round records
// the Eq. 5 average rate of the current profile (the convergence
// quantity Figures 3–6 report) and, under Options.TracePotential, the
// Eq. 13 ordinal potential whose monotone climb is Theorem 3's
// termination argument.
func (g *allocGame) RoundMetrics(put func(key string, v float64)) {
	put("r_avg", float64(g.l.AvgRate()))
	if g.tracePotential {
		put("potential", Potential(g.in, g.l.Alloc()))
	}
}

// Affected implements game.Localized. A commit by user j only mutates
// the two (server, channel) cells it leaves and enters, and player q's
// Eq. 12 benefit for any decision in δ_q reads exclusively channels of
// q's own covering servers (both the intra-channel sum and the
// inter-cell term of Eq. 2 range over V_q). So the players whose payoff
// landscape can change are exactly those covered by the source or the
// destination server — the inverted Coverage index U_i, precomputed as
// Top.Covered.
func (g *allocGame) Affected(j int, a model.Alloc) []int {
	aff := g.aff[:0]
	cur := g.l.Current(j)
	if cur.Allocated() {
		aff = append(aff, g.in.Top.Covered[cur.Server]...)
	}
	if a.Allocated() && (!cur.Allocated() || a.Server != cur.Server) {
		aff = append(aff, g.in.Top.Covered[a.Server]...)
	}
	g.aff = aff
	return aff
}

// Potential evaluates the IDDE-U potential function of Eq. (13) for an
// allocation profile. Following the printed formula (with the benefit
// shorthand b_j = β_{α_{-j}}(α_j) and T_j from Lemma 2):
//
//	π(α) = ½·Σ_j Σ_{q≠j} 1{α_j≠0}·1{α_q≠0}·b_j·b_q
//	       − Σ_j 1{α_j=0}·T_j·Σ_{q≠j} 1{α_q≠0}·b_q
//
// The Theorem 3 proof assumes uniform channel gains, and the function is
// an *ordinal* potential: committed best responses increase it. It is
// exposed for instrumentation and for the Theorem 3/4 empirical tests;
// the algorithm itself never needs to evaluate it.
func Potential(in *model.Instance, alloc model.Allocation) float64 {
	l := model.NewLedger(in, alloc)
	m := in.M()
	b := make([]float64, m)
	allocated := make([]bool, m)
	var sumB float64
	for j := 0; j < m; j++ {
		a := l.Current(j)
		if a.Allocated() {
			allocated[j] = true
			b[j] = l.Benefit(j, a)
			sumB += b[j]
		}
	}
	var pairs float64
	for j := 0; j < m; j++ {
		if allocated[j] {
			pairs += b[j] * (sumB - b[j])
		}
	}
	pi := pairs / 2
	for j := 0; j < m; j++ {
		if !allocated[j] {
			pi -= lemma2T(in, l, j) * sumB
		}
	}
	return pi
}

// lemma2T computes T_j of Lemma 2 for user j: the interference budget
// that still sustains R_{j,min}, the lowest channel rate available to j
// across its decision set under the current profile.
func lemma2T(in *model.Instance, l *model.Ledger, j int) float64 {
	rmin := in.Top.Users[j].MaxRate
	var bestG float64
	var bw = in.Top.Servers[0].Bandwidth
	found := false
	for _, i := range in.Top.Coverage[j] {
		if g := in.GainAt(i, j); g > bestG {
			bestG = g
			bw = in.Top.Servers[i].Bandwidth
		}
		for x := 0; x < in.Top.Servers[i].Channels; x++ {
			if r := l.Rate(j, model.Alloc{Server: i, Channel: x}); r < rmin {
				rmin = r
			}
			found = true
		}
	}
	if !found {
		return 0
	}
	return float64(in.Radio.Lemma2Bound(bestG, in.Top.Users[j].Power, rmin, bw))
}
