// Package exhaustive proves the one-shot broadcast protocols (FloodMin,
// Protocol A, Protocol B) over EVERY adversary at small scale, not just
// sampled ones. It runs the shipped code, the internal/protocols/mp instance
// trace.ProtocolSpec.MPFactory builds for the simulator and the live
// cluster, and judges validity with internal/checker.
//
// The one-shot shape: a process broadcasts its input once, in Start, and
// decides at its (n-t)-th delivery, its own message first (self-delivery is
// immediate), on the values delivered and not their order. The driver runs
// each process against a stub mpnet.API, delivering each arrival set twice
// (the other senders in increasing, then decreasing id order), and returns
// an error, not a verdict, when the code breaks the shape: anything but one
// Broadcast of its input in Start; any Send, or any send from Deliver; a
// decision before or after the (n-t)-th delivery, or a second one; a draw
// from Rand; or different decisions under the two orders.
//
// The key collapse: a process p's decision menu — the values some schedule
// can make it decide — is its decision on values(T) over ALL (n-t)-subsets
// T that contain p, regardless of the crash pattern. Delay makes any correct
// sender excludable from the first n-t, and a mid-broadcast crash makes any
// faulty sender includable or excludable per recipient, so the adversary
// chooses T for every process independently. Crash sets therefore matter
// only to the validity conditions' triggers, and the worst case for
// agreement is the failure-free run, where every menu is in play: a maximum
// bipartite matching between values and menus.
//
// Symmetry: menus range over all (n-t)-subsets and validity over all faulty
// sets of size <= t, and both are invariant under permuting processes,
// given decisions that read values and not ids. So an input vector's
// verdict is its sorted form's: the verifier visits only the nondecreasing
// vectors over {1..c}^n (decisions depend only on the order/equality
// pattern of inputs, so bounded c is exhaustive for bounded decision
// diversity), weighting each by its orbit size n!/∏c_v! (c_v processes hold
// value v) so that Configurations still counts the unreduced space.
//
// This re-derives the exact solvability boundaries of Lemmas 3.1/3.2
// (FloodMin), 3.7 (Protocol A, tight including the isolated boundary points)
// and 3.8 (Protocol B): see the region-rederivation tests and EXPERIMENTS.md.
package exhaustive

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// Violation describes the first counterexample found.
type Violation struct {
	Condition string // "agreement" or the validity name
	Inputs    []types.Value
	Faulty    []bool
	Detail    string
}

// String renders the counterexample.
func (v *Violation) String() string {
	return fmt.Sprintf("%s violated with inputs %v, faulty %v: %s",
		v.Condition, v.Inputs, v.Faulty, v.Detail)
}

// Verdict is the result of exhaustive verification.
type Verdict struct {
	Holds bool
	// Configurations counts (input vector, faulty set) pairs examined; a
	// failing verdict, those examined before its counterexample.
	Configurations int
	// Violation is the first counterexample when Holds is false.
	Violation *Violation
}

// Verify exhaustively checks SC(k, t, validity) for the protocol at size n
// over input vectors {1..classes}^n; classes 0 selects min(k+2, n), enough
// to exhibit k+1 distinct decisions plus a default. It returns the first
// counterexample found, if any, or an error when proto is not a one-shot
// protocol (see the package comment). Cost grows as C(n+classes-1, n) *
// C(n, <=t); n <= 7 stays comfortable.
func Verify(proto theory.ProtocolID, validity types.Validity, n, k, t, classes int) (Verdict, error) {
	v, err := newVerifier(proto, validity, n, k, t, classes)
	if err != nil {
		return Verdict{}, err
	}
	verdict := Verdict{Holds: true}
	if err := v.enumInputs(0, 1, &verdict); err != nil {
		return Verdict{}, err
	}
	return verdict, nil
}

type verifier struct {
	proto            theory.ProtocolID
	validity         types.Validity
	n, k, t, classes int
	// inst is the one instance every run restarts (the mp restart
	// contract); api is the stub it runs against.
	inst mpnet.Protocol
	api  probe
	// inputs is the vector under check, menus[p] process p's menu for it in
	// increasing order, and rec the record validity is judged on.
	inputs []types.Value
	menus  [][]types.Value
	rec    types.RunRecord
	// order is the arrival order of the run: its process, then the senders.
	order []types.ProcessID
}

func newVerifier(proto theory.ProtocolID, validity types.Validity, n, k, t, classes int) (*verifier, error) {
	if err := types.CheckValidity(validity); err != nil {
		return nil, fmt.Errorf("exhaustive: %w", err)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("exhaustive: need 0 <= t < n, got n=%d t=%d", n, t)
	}
	factory, err := trace.ProtocolSpec{Proto: proto}.MPFactory()
	if err != nil {
		return nil, fmt.Errorf("exhaustive: %v is not a one-shot protocol: %w", proto, err)
	}
	if classes <= 0 {
		classes = min(k+2, n)
	}
	inputs := make([]types.Value, n)
	return &verifier{
		proto: proto, validity: validity, n: n, k: k, t: t, classes: classes,
		inst:   factory(0),
		inputs: inputs,
		menus:  make([][]types.Value, n),
		rec: types.RunRecord{N: n, T: t, K: k, Model: types.MPCR, Inputs: inputs,
			Faulty: make([]bool, n), Decided: make([]bool, n), Decisions: make([]types.Value, n)},
	}, nil
}

// enumInputs visits every nondecreasing completion of inputs[:pos] with
// values from..classes.
func (v *verifier) enumInputs(pos int, from types.Value, verdict *Verdict) error {
	if pos == v.n {
		return v.checkVector(orbit(v.inputs), verdict)
	}
	for val := from; val <= types.Value(v.classes); val++ {
		v.inputs[pos] = val
		if err := v.enumInputs(pos+1, val, verdict); err != nil || !verdict.Holds {
			return err
		}
	}
	return nil
}

// orbit returns n!/∏c_v! for the sorted vector s, where c_v entries hold v:
// the number of vectors that sort to s.
func orbit(s []types.Value) int {
	w, run := 1, 0
	for i := range s {
		if run++; i > 0 && s[i] != s[i-1] {
			run = 1
		}
		w = w * (i + 1) / run // now the orbit of s[:i+1], an integer
	}
	return w
}

// checkVector computes every process's decision menu once, checks agreement
// in the failure-free worst case, and checks validity under every faulty
// set of size <= t, counting weight configurations per faulty set.
func (v *verifier) checkVector(weight int, verdict *Verdict) error {
	if err := v.computeMenus(); err != nil {
		return err
	}

	// Agreement in the failure-free run, where every menu counts: the
	// adversary realizes one menu entry per process; the worst case is the
	// maximum number of simultaneously distinct values (a matching).
	// Removing processes (crashing them) only shrinks the menu set, so
	// failure-free is the worst case for agreement.
	if got := maxDistinct(v.menus); got > v.k {
		verdict.Configurations += weight
		verdict.Holds, verdict.Violation = false, &Violation{Condition: "agreement",
			Inputs: slices.Clone(v.inputs), Faulty: make([]bool, v.n),
			Detail: fmt.Sprintf("menus admit %d simultaneously distinct decisions, bound k=%d", got, v.k)}
		return nil
	}

	// Validity under every faulty set (the menus are fault-independent;
	// only the condition's trigger changes).
	for fmask := 0; fmask < 1<<v.n; fmask++ {
		if bits.OnesCount(uint(fmask)) > v.t {
			continue
		}
		verdict.Configurations += weight
		if !v.checkValidity(fmask, verdict) {
			return nil
		}
	}
	return nil
}

// checkValidity reports false (and records the violation) if some correct
// process's menu holds a decision that checker.CheckValidity rejects under
// fmask, on a record where that process alone has decided.
func (v *verifier) checkValidity(fmask int, verdict *Verdict) bool {
	rec := &v.rec
	for p := range rec.Faulty {
		rec.Faulty[p] = fmask&(1<<p) != 0
	}
	for p, menu := range v.menus {
		if rec.Faulty[p] {
			continue // faulty processes' decisions are unconstrained
		}
		rec.Decided[p] = true
		for _, d := range menu {
			rec.Decisions[p] = d
			// The validity is one of the six, so any error is a violation.
			if err := checker.CheckValidity(rec, v.validity); err != nil {
				var cv *checker.Violation
				errors.As(err, &cv)
				verdict.Holds, verdict.Violation = false, &Violation{Condition: cv.Condition,
					Inputs: slices.Clone(v.inputs), Faulty: slices.Clone(rec.Faulty), Detail: cv.Detail}
				return false
			}
		}
		rec.Decided[p] = false
	}
	return true
}

// computeMenus fills menus for the vector in inputs: process p's menu holds
// its decision on every arrival set of n-t senders that includes p.
func (v *verifier) computeMenus() error {
	for p := range v.menus {
		v.menus[p] = v.menus[p][:0]
	}
	for set := 0; set < 1<<v.n; set++ {
		if bits.OnesCount(uint(set)) != v.n-v.t {
			continue
		}
		for p := range v.n {
			if set&(1<<p) == 0 {
				continue
			}
			v.order = append(v.order[:0], types.ProcessID(p))
			for q := range v.n {
				if q != p && set&(1<<q) != 0 {
					v.order = append(v.order, types.ProcessID(q))
				}
			}
			d, err := v.decide()
			if err != nil {
				return err
			}
			if i, found := slices.BinarySearch(v.menus[p], d); !found {
				v.menus[p] = slices.Insert(v.menus[p], i, d)
			}
		}
	}
	return nil
}

// decide runs process order[0] on order's messages, then on the same
// messages with the other senders reversed, and returns the decision, or an
// error naming the break of the one-shot shape.
func (v *verifier) decide() (types.Value, error) {
	a := &v.api
	var ds [2]types.Value
	for i := range ds {
		*a = probe{id: v.order[0], n: v.n, t: v.t, k: v.k, input: v.inputs[v.order[0]], decidedAt: -1}
		v.inst.Start(a)
		if a.broadcasts != 1 {
			a.fail("broadcasts %d times in Start, not once", a.broadcasts)
		}
		for _, q := range v.order {
			a.delivered++
			v.inst.Deliver(a, q, types.Payload{Kind: types.KindInput, Value: v.inputs[q]})
		}
		switch {
		case a.decidedAt < 0:
			a.fail("does not decide after %d deliveries", len(v.order))
		case a.decidedAt != len(v.order):
			a.fail("decides after %d deliveries, not after %d", a.decidedAt, len(v.order))
		}
		if a.err != nil {
			return 0, fmt.Errorf("exhaustive: %v as %s with inputs %v and arrivals from %v: %w",
				v.proto, a.id, v.inputs, v.order, a.err)
		}
		ds[i] = a.decision
		slices.Reverse(v.order[1:])
	}
	if ds[0] != ds[1] {
		return 0, fmt.Errorf("exhaustive: %v as %s with inputs %v decides %d on arrivals from %v and %d on the reverse order",
			v.proto, v.order[0], v.inputs, ds[0], v.order, ds[1])
	}
	return ds[0], nil
}

// probe is the mpnet.API the driver hands the instance: one process's
// parameters, and what the instance did with them in one run.
type probe struct {
	id         types.ProcessID
	n, t, k    int
	input      types.Value
	delivered  int // messages delivered so far; 0 during Start
	broadcasts int
	decidedAt  int // delivered at the decision, -1 before it
	decision   types.Value
	err        error // the first break of the one-shot shape
}

func (a *probe) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

func (a *probe) ID() types.ProcessID                      { return a.id }
func (a *probe) N() int                                   { return a.n }
func (a *probe) T() int                                   { return a.t }
func (a *probe) K() int                                   { return a.k }
func (a *probe) Input() types.Value                       { return a.input }
func (a *probe) HasDecided() bool                         { return a.decidedAt >= 0 }
func (a *probe) Send(to types.ProcessID, p types.Payload) { a.fail("sends %v to %s", p, to) }

func (a *probe) Broadcast(p types.Payload) {
	a.broadcasts++
	if a.delivered > 0 {
		a.fail("broadcasts %v from Deliver", p)
	} else if want := (types.Payload{Kind: types.KindInput, Value: a.input}); p != want {
		a.fail("broadcasts %v in Start, not its input %v", p, want)
	}
}

func (a *probe) Decide(d types.Value) {
	if a.decidedAt >= 0 {
		a.fail("decides %d after deciding %d", d, a.decision)
		return
	}
	a.decidedAt, a.decision = a.delivered, d
}

// Rand fails the run: a decision that draws is not a function of the
// values delivered.
func (a *probe) Rand() *prng.Source {
	a.fail("draws from Rand")
	return prng.New(0)
}

// maxDistinct computes the maximum number of distinct values simultaneously
// choosable, one per menu: a maximum bipartite matching between values and
// processes (each value needs one distinct process that can decide it).
func maxDistinct(menus [][]types.Value) int {
	values := slices.Concat(menus...)
	slices.Sort(values)
	values = slices.Compact(values)
	matched := make([]int, len(menus)) // 1 + the index of p's value; 0 is none
	var try func(d int, visited []bool) bool
	try = func(d int, visited []bool) bool {
		for p, menu := range menus {
			if visited[p] || !slices.Contains(menu, values[d]) {
				continue
			}
			visited[p] = true
			if matched[p] == 0 || try(matched[p]-1, visited) {
				matched[p] = d + 1
				return true
			}
		}
		return false
	}
	count := 0
	for d := range values {
		if try(d, make([]bool, len(menus))) {
			count++
		}
	}
	return count
}
