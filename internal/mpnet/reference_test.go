package mpnet_test

// The delivery policies as they were before the indexed pool: every Next body
// below is the old one, scanning (and where it did, allocating over) the bare
// envelope slice. They are the oracle of TestSchedulersMatchReference — the
// production policies must make the identical pick from the identical rng
// draws — and are not meant to be fast.

import (
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/types"
)

type refFairRandom struct{}

func (refFairRandom) Next(_ *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	return rng.Intn(len(pool.Envelopes()))
}

type refFIFO struct{}

func (refFIFO) Next(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
	inflight := pool.Envelopes()
	best := 0
	for i := 1; i < len(inflight); i++ {
		if inflight[i].Seq < inflight[best].Seq {
			best = i
		}
	}
	return best
}

type refLIFO struct{}

func (refLIFO) Next(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
	inflight := pool.Envelopes()
	best := 0
	for i := 1; i < len(inflight); i++ {
		if inflight[i].Seq > inflight[best].Seq {
			best = i
		}
	}
	return best
}

type refChannelFIFO struct{}

func (refChannelFIFO) Next(_ *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	inflight := pool.Envelopes()
	type channel struct{ from, to types.ProcessID }
	oldest := make(map[channel]int)
	for i, env := range inflight {
		ch := channel{env.From, env.To}
		if j, ok := oldest[ch]; !ok || env.Seq < inflight[j].Seq {
			oldest[ch] = i
		}
	}
	// Deterministic choice among channels: order by (from, to).
	chans := make([]channel, 0, len(oldest))
	for ch := range oldest {
		chans = append(chans, ch)
	}
	for i := 1; i < len(chans); i++ {
		for j := i; j > 0; j-- {
			a, b := chans[j-1], chans[j]
			if a.from < b.from || (a.from == b.from && a.to <= b.to) {
				break
			}
			chans[j-1], chans[j] = b, a
		}
	}
	return oldest[chans[rng.Intn(len(chans))]]
}

type refGroupGate struct {
	Group      []int
	FromAlways []bool
}

func (g *refGroupGate) gateOpen(view *mpnet.View, group int) bool {
	for p := 0; p < view.N; p++ {
		if g.Group[p] != group {
			continue
		}
		if view.Faulty[p] {
			continue
		}
		if !view.Decided[p] {
			return false
		}
	}
	return true
}

func (g *refGroupGate) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	inflight := pool.Envelopes()
	eligible := make([]int, 0, len(inflight))
	for i, env := range inflight {
		if len(g.FromAlways) > 0 && g.FromAlways[env.From] {
			eligible = append(eligible, i)
			continue
		}
		sg, rg := g.Group[env.From], g.Group[env.To]
		if sg == rg || g.gateOpen(view, rg) {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return rng.Intn(len(inflight))
	}
	return eligible[rng.Intn(len(eligible))]
}

type refPreferIntra struct{ Group []int }

func (p *refPreferIntra) Next(_ *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	inflight := pool.Envelopes()
	intra := make([]int, 0, len(inflight))
	for i, env := range inflight {
		if p.Group[env.From] == p.Group[env.To] {
			intra = append(intra, i)
		}
	}
	if len(intra) > 0 {
		return intra[rng.Intn(len(intra))]
	}
	return rng.Intn(len(inflight))
}

type refDelayProcess struct{ Delayed []bool }

func (d *refDelayProcess) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	inflight := pool.Envelopes()
	allOthersDecided := true
	for p := 0; p < view.N; p++ {
		if d.Delayed[p] || view.Crashed[p] || view.Faulty[p] {
			continue
		}
		if !view.Decided[p] {
			allOthersDecided = false
			break
		}
	}
	eligible := make([]int, 0, len(inflight))
	for i, env := range inflight {
		if allOthersDecided || !d.Delayed[env.From] {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return rng.Intn(len(inflight))
	}
	return eligible[rng.Intn(len(eligible))]
}
