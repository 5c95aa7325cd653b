package adversary

import (
	"fmt"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/types"
)

// BoundaryProtocolA probes the isolated open points of the RV2/WV2 panels
// of Figure 2: the cells with k*t = (k-1)*n exactly (which exist only when
// k divides n), which the paper leaves open — "isolated points on the line
// that separates possible from impossible". At such a point the processes
// partition into exactly k groups of size n-t, and this construction makes
// Protocol A decide k+1 values:
//
//   - the k groups run in isolation on distinct uniform inputs; every member
//     except one designated victim sees n-t unanimous messages and decides
//     its group value (k distinct values);
//   - the victim's intra-group messages are delayed until one message from
//     an already-decided foreign group slips in, so its n-t messages are
//     mixed and it decides the default v0 — the (k+1)-th value.
//
// This shows the open points are genuinely outside Protocol A's region (its
// Lemma 3.7 proof needs k*(n-t) > n, which fails at equality); whether any
// other protocol solves them is the question the paper leaves open.
func BoundaryProtocolA(n, k int) (*Construction, error) {
	if k < 2 || k >= n {
		return nil, fmt.Errorf("%w: need 2 <= k < n, got n=%d k=%d", ErrOutOfRange, n, k)
	}
	if (k-1)*n%k != 0 {
		return nil, fmt.Errorf("%w: boundary point needs k | (k-1)*n, got n=%d k=%d", ErrOutOfRange, n, k)
	}
	t := (k - 1) * n / k
	size := n - t // == n/k
	if size < 2 {
		return nil, fmt.Errorf("%w: group size n-t=%d too small for a victim plus a peer", ErrOutOfRange, size)
	}
	inputs := make([]types.Value, n)
	group := make([]int, n)
	for i := 0; i < n; i++ {
		group[i] = i / size
		inputs[i] = types.Value(i/size + 1)
	}
	return &Construction{
		Name:     "boundary-protocolA",
		Lemma:    "open point k*t = (k-1)*n (after Lemma 3.7)",
		Expect:   "agreement",
		Validity: types.WV2,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() },
			// The victim is the last member of the last group.
			Scheduler: &boundaryScheduler{group: group, victim: types.ProcessID(n - 1)},
		},
	}, nil
}

// boundaryScheduler delivers intra-group traffic freely except to the
// victim, whose intra-group messages are held until it has received one
// message from a fully-decided foreign group. Cross-group traffic to
// non-victims follows the usual recipient gate (held until the recipient's
// group has decided). The victim's foreign message is counted per run: a
// new (view, view.Run) pair starts the count again.
type boundaryScheduler struct {
	group       []int
	victim      types.ProcessID
	view        *mpnet.View
	run         uint64
	victimCross int
	decided     []bool // scratch for decidedGroups, reused across picks
}

var _ mpnet.Scheduler = (*boundaryScheduler)(nil)

// decidedGroups works out, in one walk over the processes, which groups have
// every non-faulty member decided, ignoring the victim (which cannot decide
// before the gate opens).
func (b *boundaryScheduler) decidedGroups(view *mpnet.View) []bool {
	if b.decided == nil {
		groups := 0
		for _, g := range b.group {
			if g >= groups {
				groups = g + 1
			}
		}
		b.decided = make([]bool, groups)
	}
	for g := range b.decided {
		b.decided[g] = true
	}
	for p := 0; p < view.N; p++ {
		if !view.Faulty[p] && types.ProcessID(p) != b.victim && !view.Decided[p] {
			b.decided[b.group[p]] = false
		}
	}
	return b.decided
}

// Next implements mpnet.Scheduler.
func (b *boundaryScheduler) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	if view != b.view || view.Run != b.run {
		b.view, b.run, b.victimCross = view, view.Run, 0
	}
	decided := b.decidedGroups(view)
	if b.victimCross == 0 {
		// Foreign traffic to the victim flows once the sender's group has
		// decided (it can no longer be confused by the leak); the last such
		// message in pick order is the one that slips in.
		envs := pool.Envelopes()
		for i := len(envs) - 1; i >= 0; i-- {
			env := &envs[i]
			if sg := b.group[env.From]; env.To == b.victim && sg != b.group[env.To] && decided[sg] {
				b.victimCross++
				return i
			}
		}
	}
	// The filter moves with every decision, not only with a group's: have the
	// pool ask about every envelope at every pick.
	return pool.PickAmong(rng, true, func(env *mpnet.Envelope) bool {
		sg, rg := b.group[env.From], b.group[env.To]
		switch {
		case env.To == b.victim:
			// Victim's intra traffic waits for the foreign message; more
			// foreign traffic to it is never eligible.
			return sg == rg && b.victimCross >= 1
		case sg == rg:
			return true
		default:
			// Ordinary cross traffic: recipient gate.
			return decided[rg] && view.Decided[env.To]
		}
	})
}
