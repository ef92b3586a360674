package model

import (
	"sync"
	"sync/atomic"

	"idde/internal/radio"
	"idde/internal/units"
)

// Ledger tracks, for a mutable allocation profile, which users occupy
// each (server, channel) and the total transmit power there. It answers
// the per-user quantities of §2.2 — SINR (Eq. 2), achievable rate
// (Eqs. 3–4) and the game benefit (Eq. 12) — for both the current
// decision and hypothetical moves, in time proportional to the coverage
// set of the user involved rather than to M or to channel occupancy.
//
// Two interference evaluators coexist. The default keeps, per (receiver
// server i, source server o, channel x), the gain-weighted power sum
// Σ_{t∈users[o][x]} Gain[i][t]·p_t, so the inter-cell term F of Eq. (2)
// is |V_j| lookups instead of a walk over every co-channel occupant.
// Receiver rows are built lazily (one-shot evaluations never pay for
// them) and maintained in O(built receivers) per Move. The naive
// reference scan remains available via SetNaiveInterference for
// differential tests and drift-sensitive debugging; the two differ only
// in floating-point summation order.
type Ledger struct {
	in    *Instance
	alloc Allocation
	// users[i][x] lists the users on channel x of server i.
	users [][][]int
	// power[i][x] is Σ p_t over those users.
	power [][]units.Watts

	// agg[i] points at the lazily built receiver-i aggregate row:
	// vals[srcOff[o]+x] = Σ_{t∈users[o][x]} Gain[i][t]·p_t, restricted
	// to sources o that co-cover a user with i — the only sources the
	// Eq. 2 Coverage walk can pair with receiver i. Rows are published
	// atomically so concurrent best-response scans may build them;
	// aggMu serializes the builds. A built row is never evicted (only
	// SetNaiveInterference drops rows), and Move — single-writer by the
	// Adapter contract — keeps it current.
	agg   []atomic.Pointer[aggRowData]
	aggMu sync.Mutex

	// naive switches interCell to the O(occupancy) reference scan.
	naive bool
}

// NewLedger builds a ledger over a copy of the given profile.
func NewLedger(in *Instance, alloc Allocation) *Ledger {
	l := &Ledger{
		in:    in,
		alloc: alloc.Clone(),
		users: make([][][]int, in.N()),
		power: make([][]units.Watts, in.N()),
		agg:   make([]atomic.Pointer[aggRowData], in.N()),
	}
	for i := 0; i < in.N(); i++ {
		c := in.Top.Servers[i].Channels
		l.users[i] = make([][]int, c)
		l.power[i] = make([]units.Watts, c)
	}
	for j, d := range l.alloc {
		if d.Allocated() {
			l.users[d.Server][d.Channel] = append(l.users[d.Server][d.Channel], j)
			l.power[d.Server][d.Channel] += in.Top.Users[j].Power
		}
	}
	return l
}

// SetNaiveInterference toggles the O(occupancy) reference scan for the
// inter-cell interference term of Eq. (2). The aggregate evaluator is a
// pure reassociation of the same sum; results agree up to floating-point
// summation order (the differential tests in this package pin that
// down). The naive path exists for drift-sensitive debugging and as the
// perf-baseline reference. Like Move, it must not race with concurrent
// evaluations.
func (l *Ledger) SetNaiveInterference(on bool) {
	l.naive = on
	// Built rows go stale while the naive path runs (Move stops
	// maintaining them); drop them so re-enabling rebuilds from scratch.
	for i := range l.agg {
		l.agg[i].Store(nil)
	}
}

// Alloc returns a snapshot of the current profile.
func (l *Ledger) Alloc() Allocation { return l.alloc.Clone() }

// Current reports user j's current decision.
func (l *Ledger) Current(j int) Alloc { return l.alloc[j] }

// Occupancy reports how many users share channel x of server i.
func (l *Ledger) Occupancy(i, x int) int { return len(l.users[i][x]) }

// Move reassigns user j to decision a (possibly Unallocated),
// maintaining the channel registries and any built aggregate rows in
// O(built receivers). Move must not race with concurrent evaluations
// (the game engine serializes Apply).
func (l *Ledger) Move(j int, a Alloc) {
	cur := l.alloc[j]
	if cur == a {
		return
	}
	if cur.Allocated() {
		l.remove(j, cur)
	}
	if a.Allocated() {
		l.users[a.Server][a.Channel] = append(l.users[a.Server][a.Channel], j)
		l.power[a.Server][a.Channel] += l.in.Top.Users[j].Power
	}
	l.alloc[j] = a
	l.aggMove(j, cur, a)
}

// aggRowData is one receiver's aggregate row, restricted to the sources
// that can ever be paired with it by the Eq. 2 Coverage walk.
type aggRowData struct {
	// srcOff[o] is the offset of source o's channel block in vals, or
	// -1 when o never co-covers a user with the receiver. Such cells
	// are only reachable through off-coverage hypotheticals, which
	// interCell serves with a single-cell reference walk instead.
	srcOff []int32
	vals   []float64
}

// aggMove folds user j's contribution Gain[i][j]·p_j out of (from) and
// into (to) every built receiver row. Cells outside a row's co-covering
// source set are simply absent and skipped.
func (l *Ledger) aggMove(j int, from, to Alloc) {
	if l.naive {
		return
	}
	// Invariant: a built cell always equals the left-to-right fold of
	// Gain[i][t]·p_t over the current users[o][x] list — exactly what a
	// fresh build computes. Appends extend the fold with one more term;
	// removals recompute the cell from the (typically short) survivor
	// list instead of subtracting, because incremental subtraction
	// leaves residue proportional to the largest *historical* occupant,
	// which can dwarf the remaining sum and flip argmax decisions
	// against the reference path on near-empty channels.
	var fromUsers []int
	if from.Allocated() {
		fromUsers = l.users[from.Server][from.Channel]
	}
	p := float64(l.in.Top.Users[j].Power)
	for i := range l.agg {
		d := l.agg[i].Load()
		if d == nil {
			continue
		}
		gi := l.in.GainRow(i)
		if from.Allocated() {
			if off := d.srcOff[from.Server]; off >= 0 {
				var sum float64
				for _, t := range fromUsers {
					sum += gi.At(t) * float64(l.in.Top.Users[t].Power)
				}
				d.vals[int(off)+from.Channel] = sum
			}
		}
		if to.Allocated() {
			if off := d.srcOff[to.Server]; off >= 0 {
				d.vals[int(off)+to.Channel] += gi.At(j) * p
			}
		}
	}
}

// aggRow returns the receiver-i aggregate row, building it on first use.
// Safe for concurrent callers between Moves.
func (l *Ledger) aggRow(i int) *aggRowData {
	if d := l.agg[i].Load(); d != nil {
		return d
	}
	return l.buildRow(i)
}

// buildRow materializes receiver i's row under aggMu, unless a
// concurrent caller built it first. Its sources are the union of
// Coverage[j] across the users j that server i covers, laid out in
// ascending source order; every cell holds the left-to-right fold over
// the current occupant lists (the aggMove invariant), so a rebuilt row
// is bit-identical to one that was maintained all along.
func (l *Ledger) buildRow(i int) *aggRowData {
	l.aggMu.Lock()
	defer l.aggMu.Unlock()
	if d := l.agg[i].Load(); d != nil {
		return d
	}
	d := &aggRowData{srcOff: make([]int32, l.in.N())}
	for o := range d.srcOff {
		d.srcOff[o] = -1
	}
	for _, j := range l.in.Top.Covered[i] {
		for _, o := range l.in.Top.Coverage[j] {
			d.srcOff[o] = 0
		}
	}
	var width int32
	for o, off := range d.srcOff {
		if off < 0 {
			continue
		}
		d.srcOff[o] = width
		width += int32(l.in.Top.Servers[o].Channels)
	}
	d.vals = make([]float64, width)
	gi := l.in.GainRow(i)
	for o := range l.users {
		off := d.srcOff[o]
		if off < 0 {
			continue
		}
		for x, us := range l.users[o] {
			var sum float64
			for _, t := range us {
				sum += gi.At(t) * float64(l.in.Top.Users[t].Power)
			}
			d.vals[int(off)+x] = sum
		}
	}
	l.agg[i].Store(d)
	return d
}

func (l *Ledger) remove(j int, a Alloc) {
	us := l.users[a.Server][a.Channel]
	for idx, u := range us {
		if u == j {
			us[idx] = us[len(us)-1]
			l.users[a.Server][a.Channel] = us[:len(us)-1]
			break
		}
	}
	l.power[a.Server][a.Channel] -= l.in.Top.Users[j].Power
	if l.power[a.Server][a.Channel] < 0 {
		l.power[a.Server][a.Channel] = 0 // guard fp drift
	}
}

// interCell computes F_{i,x,j} of Eq. (2): the interference measured at
// server i on channel x from users allocated to channel x of the *other*
// servers covering user j, under the hypothesis that j itself sits at
// (i,x) (so j never self-interferes). The default path reads one
// pre-aggregated sum per covering server — O(|V_j|) — and subtracts j's
// own contribution where j currently occupies a summed channel.
func (l *Ledger) interCell(j int, a Alloc) units.Watts {
	if l.naive {
		return l.interCellNaive(j, a)
	}
	return l.interCellRow(j, a, l.aggRow(a.Server))
}

// interCellRow reads the Eq. 2 inter-cell term out of a built row.
func (l *Ledger) interCellRow(j int, a Alloc, d *aggRowData) units.Watts {
	cur := l.alloc[j]
	gr := l.in.GainRow(a.Server)
	var f float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(l.users[o]) {
			continue
		}
		off := d.srcOff[o]
		if off < 0 {
			// Off-coverage hypothetical: a.Server does not cover j (else
			// o would co-cover with it), so the row has no cell for o.
			// Walk the single (o, channel) cell directly; j can't be in
			// it under the game's coverage-constrained moves, but skip
			// it anyway for arbitrary-caller safety.
			for _, t := range l.users[o][a.Channel] {
				if t == j {
					continue
				}
				f += gr.At(t) * float64(l.in.Top.Users[t].Power)
			}
			continue
		}
		f += d.vals[int(off)+a.Channel]
		if cur.Server == o && cur.Channel == a.Channel {
			f -= gr.At(j) * float64(l.in.Top.Users[j].Power)
		}
	}
	if f < 0 {
		f = 0 // guard fp drift from the self-term subtraction
	}
	return units.Watts(f)
}

// interCellNaive is the reference evaluator: walk every co-channel
// occupant of every covering server (O(|V_j|·occupancy)).
func (l *Ledger) interCellNaive(j int, a Alloc) units.Watts {
	gr := l.in.GainRow(a.Server)
	var f float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == a.Server || a.Channel >= len(l.users[o]) {
			continue
		}
		for _, t := range l.users[o][a.Channel] {
			if t == j {
				continue
			}
			f += gr.At(t) * float64(l.in.Top.Users[t].Power)
		}
	}
	return units.Watts(f)
}

// WarmAggregates builds every aggregate row up front, so benchmarks
// and latency-sensitive callers pay the build cost before the first
// evaluation.
func (l *Ledger) WarmAggregates() {
	if l.naive {
		return
	}
	for i := range l.agg {
		l.aggRow(i)
	}
}

// AggMemStats is a snapshot of the aggregate-row memory: how many rows
// are built and the bytes their srcOff and vals slices hold.
type AggMemStats struct {
	Rows  int
	Bytes int64
}

// AggMemStats walks the built aggregate rows.
func (l *Ledger) AggMemStats() AggMemStats {
	var st AggMemStats
	for i := range l.agg {
		if d := l.agg[i].Load(); d != nil {
			st.Rows++
			st.Bytes += int64(4*len(d.srcOff) + 8*len(d.vals))
		}
	}
	return st
}

// intraOther computes Σ_{u_t∈U_{i,x}\u_j} p_t under the hypothesis that
// j is (or would be) allocated at a.
func (l *Ledger) intraOther(j int, a Alloc) units.Watts {
	p := l.power[a.Server][a.Channel]
	if l.alloc[j] == a {
		p -= l.in.Top.Users[j].Power
	}
	if p < 0 {
		p = 0
	}
	return p
}

// SINR evaluates Eq. (2) for user j under the hypothetical decision a.
// It reports 0 for Unallocated.
func (l *Ledger) SINR(j int, a Alloc) float64 {
	if !a.Allocated() {
		return 0
	}
	g := l.in.GainAt(a.Server, j)
	return l.in.Radio.SINR(g, l.in.Top.Users[j].Power, l.intraOther(j, a), l.interCell(j, a))
}

// Rate evaluates Eqs. (3)–(4) — the Shannon rate capped at R_{j,max} —
// for user j under the hypothetical decision a.
func (l *Ledger) Rate(j int, a Alloc) units.Rate {
	if !a.Allocated() {
		return 0
	}
	b := l.in.Top.Servers[a.Server].Bandwidth
	r := radio.ShannonRate(b, l.SINR(j, a))
	return radio.CapRate(r, l.in.Top.Users[j].MaxRate)
}

// CurrentRate evaluates user j's rate under its current decision.
func (l *Ledger) CurrentRate(j int) units.Rate { return l.Rate(j, l.alloc[j]) }

// RateIgnoringInterCell evaluates Eqs. (3)–(4) with the inter-cell term
// F of Eq. (2) dropped — the simplified single-cell interference view
// some baselines (DUP-G) plan with. The *achieved* rate is still
// evaluated with the full model; this is only their decision payoff.
func (l *Ledger) RateIgnoringInterCell(j int, a Alloc) units.Rate {
	if !a.Allocated() {
		return 0
	}
	g := l.in.GainAt(a.Server, j)
	sinr := l.in.Radio.SINR(g, l.in.Top.Users[j].Power, l.intraOther(j, a), 0)
	b := l.in.Top.Servers[a.Server].Bandwidth
	return radio.CapRate(radio.ShannonRate(b, sinr), l.in.Top.Users[j].MaxRate)
}

// Benefit evaluates the game benefit function of Eq. (12) for user j
// under the hypothetical decision a:
//
//	β = g·p_j / (g·Σ_{u_t∈U_{i,x}(α)} p_t + F)
//
// where the intra-channel sum includes u_j itself (the profile α has
// α_j = a). Unallocated yields 0, so any feasible allocation beats
// staying out — matching the paper's premise that all users can be
// allocated in IDDE scenarios.
func (l *Ledger) Benefit(j int, a Alloc) float64 {
	if !a.Allocated() {
		return 0
	}
	g := l.in.GainAt(a.Server, j)
	p := float64(l.in.Top.Users[j].Power)
	intra := float64(l.intraOther(j, a)) + p // includes u_j per Eq. 12
	den := g*intra + float64(l.interCell(j, a))
	if den <= 0 {
		return 0
	}
	return g * p / den
}

// bestRespChannels is the channel span the fused BestResponse kernel
// folds in a stack vector; servers with more channels are scored by the
// per-candidate Benefit loop.
const bestRespChannels = 8

// BestResponse evaluates user j's Eq. 12 best response over every
// channel of the candidate servers cands (in order, channels
// ascending). It returns the first strictly best decision — j's current
// decision wins ties, then the earliest (server, channel) — together
// with its benefit and the benefit of the current decision. The result
// is bit-identical to calling Benefit per candidate: that loop is the
// path the naive ledger takes, while the default ledger
// runs a fused kernel that loads each candidate server's aggregate row
// and g_{i,j} once and folds the inter-cell term of all its channels in
// one walk over Coverage[j]. Safe for concurrent callers between Moves.
func (l *Ledger) BestResponse(j int, cands []int) (best Alloc, bestB, curB float64) {
	cur := l.alloc[j]
	curB = l.Benefit(j, cur)
	best, bestB = cur, curB
	fused := !l.naive
	for _, i := range cands {
		c := len(l.power[i])
		if fused && c <= bestRespChannels {
			best, bestB = l.bestOnServer(j, i, cur, best, bestB)
			continue
		}
		for x := 0; x < c; x++ {
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

// bestOnServer is the fused kernel for one candidate server i: it
// scores every channel of i against the running best and returns the
// updated (best, bestB). Each channel's inter-cell sum f[x] receives
// exactly the terms interCellRow adds for (i, x), in the same order —
// sources in Coverage[j] order, the self-term subtracted right after
// j's own source cell — and the same f<0 clamp, so every score equals
// Benefit(j, {i, x}) bit for bit.
func (l *Ledger) bestOnServer(j, i int, cur, best Alloc, bestB float64) (Alloc, float64) {
	d := l.aggRow(i)
	gr := l.in.GainRow(i)
	g := gr.At(j)
	pj := float64(l.in.Top.Users[j].Power)
	pw := l.power[i]
	c := len(pw)
	var f [bestRespChannels]float64
	for _, o := range l.in.Top.Coverage[j] {
		if o == i {
			continue
		}
		co := min(len(l.users[o]), c)
		off := d.srcOff[o]
		if off < 0 {
			// Off-coverage candidate: walk the cells, as interCellRow.
			for x := 0; x < co; x++ {
				for _, t := range l.users[o][x] {
					if t == j {
						continue
					}
					f[x] += gr.At(t) * float64(l.in.Top.Users[t].Power)
				}
			}
			continue
		}
		for x, v := range d.vals[off : int(off)+co] {
			f[x] += v
		}
		if cur.Server == o && cur.Channel < co {
			f[cur.Channel] -= g * pj
		}
	}
	for x := 0; x < c; x++ {
		a := Alloc{Server: i, Channel: x}
		if a == cur {
			continue
		}
		fx := f[x]
		if fx < 0 {
			fx = 0 // guard fp drift from the self-term subtraction
		}
		// a ≠ cur, so intraOther subtracts nothing from the cell power
		// (which remove keeps non-negative).
		intra := float64(pw[x]) + pj
		den := g*intra + fx
		var b float64
		if den > 0 {
			b = g * pj / den
		}
		if b > bestB {
			best, bestB = a, b
		}
	}
	return best, bestB
}

// AvgRate evaluates Eq. (5) over the current profile: the mean rate over
// all M users (unallocated users contribute 0 per Eq. 4's indicator).
func (l *Ledger) AvgRate() units.Rate {
	if l.in.M() == 0 {
		return 0
	}
	var sum float64
	for j := range l.alloc {
		sum += float64(l.CurrentRate(j))
	}
	return units.Rate(sum / float64(l.in.M()))
}

// AvgRate evaluates Eq. (5) for an allocation profile from scratch.
func (in *Instance) AvgRate(alloc Allocation) units.Rate {
	return NewLedger(in, alloc).AvgRate()
}

// UserRate evaluates Eqs. (2)–(4) for one user from scratch.
func (in *Instance) UserRate(alloc Allocation, j int) units.Rate {
	l := NewLedger(in, alloc)
	return l.CurrentRate(j)
}
