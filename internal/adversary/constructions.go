package adversary

import (
	"errors"
	"fmt"
	"io"

	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/types"
)

// ErrOutOfRange reports that a construction's parameter preconditions do not
// hold at the requested point.
var ErrOutOfRange = errors.New("adversary: construction preconditions not met")

// Construction packages one counterexample run: a ready-to-run
// configuration realizing a proof construction from the paper, in either
// memory model, plus the condition it is expected to break. Exactly one of
// MP and SM is set.
type Construction struct {
	// Name identifies the construction.
	Name string
	// Lemma cites the impossibility proof whose run shape this realizes.
	Lemma string
	// Expect names the condition expected to fail ("agreement",
	// "termination", or a validity name).
	Expect string
	// Validity is the condition the attacked protocol claims.
	Validity types.Validity
	// MP is a message-passing construction's setup (Seed is set per run).
	MP *mpnet.Config
	// NewScheduler, when set, builds MP's scheduler afresh for every run:
	// constructions whose schedulers carry per-run state need it.
	NewScheduler func() mpnet.Scheduler
	// SM is a shared-memory construction's setup (Seed is set per run).
	SM *smmem.Config
}

// Run executes the construction once with the given seed. A non-nil trace
// receives every simulator event, one line each.
func (c *Construction) Run(seed uint64, trace io.Writer) (*types.RunRecord, error) {
	if c.SM != nil {
		cfg := *c.SM
		cfg.Seed = seed
		if trace != nil {
			cfg.Trace = func(ev smmem.TraceEvent) { fmt.Fprintln(trace, ev) }
		}
		return smmem.Run(cfg)
	}
	cfg := *c.MP
	cfg.Seed = seed
	if c.NewScheduler != nil {
		cfg.Scheduler = c.NewScheduler()
	}
	if trace != nil {
		cfg.Trace = func(ev mpnet.TraceEvent) { fmt.Fprintln(trace, ev) }
	}
	return mpnet.Run(cfg)
}

// Outcome is a construction run that broke a condition.
type Outcome struct {
	Record    *types.RunRecord
	Violation error
}

// Violate runs the construction under up to seeds seeds (1, then
// 2654435762, …) and returns the first run that breaks a condition, or nil
// if, unexpectedly, every run held. Deterministic constructions violate on
// the first seed; the further seeds serve the few that need scheduling luck.
func (c *Construction) Violate(seeds int) (*Outcome, error) {
	for i := 0; i < max(seeds, 1); i++ {
		rec, err := c.Run(uint64(i)*2654435761+1, nil)
		if err != nil {
			return nil, fmt.Errorf("adversary: construction %s failed to run: %w", c.Name, err)
		}
		if err := checker.CheckAll(rec, c.Validity); err != nil {
			return &Outcome{Record: rec, Violation: err}, nil
		}
	}
	return nil, nil
}

// Builder builds a construction at (n, k, t), or declines with an
// ErrOutOfRange error when the point is outside its preconditions.
type Builder func(n, k, t int) (*Construction, error)

// Entry is one construction in the registry: the name ksetrun -demo takes,
// its builder, and the fault bound of its representative point at n (where
// ksetverify -constructions and the evaluation report run it, at k = 2).
type Entry struct {
	Name  string
	Build Builder
	T     func(n int) int
}

// Registry lists every construction, in the evaluation report's row order.
var Registry = []Entry{
	{"lemma3.2", Lemma32FloodMin, func(n int) int { return (n - 1) / 2 }},
	{"lemma3.3", Lemma33ProtocolA, func(n int) int { return n - n/4 }},
	{"lemma3.5", Lemma35FloodMin, func(int) int { return 1 }},
	{"lemma3.6", Lemma36ProtocolB, func(n int) int { return (2*n + 4) / 5 }},
	{"boundary", func(n, k, _ int) (*Construction, error) { return BoundaryProtocolA(n, k) },
		func(n int) int { return n / 2 }},
	{"lemma3.9", Lemma39ProtocolA, func(n int) int { return n/2 + 1 }},
	{"lemma3.10", Lemma310FloodMin, func(int) int { return 1 }},
	{"lemma4.3", Lemma43ProtocolF, func(n int) int { return n/2 + 1 }},
	{"lemma4.9", Lemma49ProtocolE, func(int) int { return 1 }},
}

// Lookup returns the registry's builder of the given name.
func Lookup(name string) (Builder, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e.Build, true
		}
	}
	return nil, false
}

// Representative is one registry entry at its representative point.
type Representative struct {
	Entry
	K, T int
	// Cons is the built construction; nil when the builder declined with
	// Err.
	Cons *Construction
	Err  error
	// Out and RunErr are Run's result: the first violating run (nil if
	// every run held) or the error that stopped a run.
	Out    *Outcome
	RunErr error
}

// Representatives builds every registry entry at its representative point
// for n, in registry order. Builders return fresh instances, so their Run
// calls are independent jobs for a fan-out.
func Representatives(n int) []Representative {
	out := make([]Representative, len(Registry))
	for i, e := range Registry {
		r := Representative{Entry: e, K: 2, T: e.T(n)}
		r.Cons, r.Err = e.Build(n, r.K, r.T)
		out[i] = r
	}
	return out
}

// Run runs a built construction under up to 8 seeds (see Violate) and
// records the result in r.
func (r *Representative) Run() {
	if r.Cons != nil {
		r.Out, r.RunErr = r.Cons.Violate(8)
	}
}

// Lemma33ProtocolA realizes the run of Lemma 3.3 (Figure 3) against
// Protocol A in MP/CR at a point with t >= ((k-1)n+1)/k: the processes are
// partitioned into k-1 groups of size exactly n-t with distinct uniform
// inputs (each decides its own value in isolation), one further group of
// size n-t with uniform input x (decides x), and a remainder group with
// input y that can never decide alone and, once its gate falls back open,
// sees mixed values and decides the default. That is k+1 distinct decisions:
// an agreement violation, deterministic for every seed.
func Lemma33ProtocolA(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < 1 || t > n {
		return nil, fmt.Errorf("%w: n=%d k=%d t=%d outside 2<=k<n, 1<=t<=n", ErrOutOfRange, n, k, t)
	}
	if k*t <= (k-1)*n {
		return nil, fmt.Errorf("%w: need k*t > (k-1)*n (Lemma 3.3 region), got n=%d k=%d t=%d",
			ErrOutOfRange, n, k, t)
	}
	// k groups of size n-t plus a non-empty remainder require k(n-t) < n,
	// which is exactly k*t > (k-1)*n.
	size := n - t
	if size < 1 {
		return nil, fmt.Errorf("%w: n-t=%d, need at least 1", ErrOutOfRange, size)
	}
	inputs := make([]types.Value, n)
	groups := make([][]types.ProcessID, 0, k+1)
	next := 0
	for gi := 0; gi < k; gi++ {
		members := make([]types.ProcessID, 0, size)
		for j := 0; j < size; j++ {
			inputs[next] = types.Value(gi + 1)
			members = append(members, types.ProcessID(next))
			next++
		}
		groups = append(groups, members)
	}
	rest := make([]types.ProcessID, 0, n-next)
	for ; next < n; next++ {
		inputs[next] = types.Value(k + 1)
		rest = append(rest, types.ProcessID(next))
	}
	groups = append(groups, rest)
	return &Construction{
		Name:     "lemma3.3-protocolA",
		Lemma:    "Lemma 3.3",
		Expect:   "agreement",
		Validity: types.WV2,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() },
			Scheduler:   mpnet.NewGroupGate(n, groups),
		},
	}, nil
}

// Lemma32FloodMin realizes the mid-broadcast crash run that breaks FloodMin
// (Chaudhuri's protocol) when t >= k, demonstrating the boundary of
// Lemma 3.2: processes p1..pt hold the t smallest inputs and crash while
// broadcasting, so that pi's value reaches exactly the processes up through
// p_{t+i}. Under FIFO delivery, correct process p_{t+j} then decides j while
// processes beyond p_{2t} decide t+1, for t+1 > k distinct decisions.
// Requires n >= 2t+1.
func Lemma32FloodMin(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < k {
		return nil, fmt.Errorf("%w: need 2 <= k < n and t >= k, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	if n < 2*t+1 {
		return nil, fmt.Errorf("%w: construction needs n >= 2t+1, got n=%d t=%d", ErrOutOfRange, n, t)
	}
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	atSend := make(map[types.ProcessID]int, t)
	for i := 1; i <= t; i++ {
		// Crasher p_i (id i-1) transmits to recipients in id order and
		// crashes after t+i sends, so its value reaches ids 0..t+i-1, the
		// last of them the correct process p_{t+i}.
		atSend[types.ProcessID(i-1)] = t + i
	}
	return &Construction{
		Name:     "lemma3.2-floodmin",
		Lemma:    "Lemma 3.2",
		Expect:   "agreement",
		Validity: types.RV1,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			Crash:       &mpnet.ScriptedCrashes{AtSend: atSend},
			Scheduler:   mpnet.FIFO{},
		},
	}, nil
}

// Lemma35FloodMin realizes Lemma 3.5's run against FloodMin: with all-
// distinct inputs every process hears p1 (the only process whose input is
// the minimum v1) first and decides v1, and p1 crashes right after its last
// send. Every correct decision then equals the input of a faulty process
// only: an SV1 violation. It needs n-t >= 2: at t = n-1 every process
// decides its own input in its Start, before it hears anyone.
func Lemma35FloodMin(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < 1 || t > n-2 {
		return nil, fmt.Errorf("%w: need 2 <= k < n and 1 <= t <= n-2, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	return &Construction{
		Name:     "lemma3.5-floodmin",
		Lemma:    "Lemma 3.5",
		Expect:   "SV1",
		Validity: types.SV1,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			// p1 crashes after its broadcast completes (n transmissions).
			Crash:     &mpnet.ScriptedCrashes{AtEvent: map[types.ProcessID]int{0: 1}},
			Scheduler: keySenderFirst(n, 0),
		},
	}, nil
}

// keySenderFirst delivers the key sender's messages first, at every
// process: each process is a group of its own and the key's messages are
// always eligible, so any other message waits until its recipient has
// decided or nothing else is in flight. Every process that decides after
// hearing from n-t >= 2 senders has then heard the key.
func keySenderFirst(n int, key types.ProcessID) *mpnet.GroupGate {
	g := &mpnet.GroupGate{Group: make([]int, n), FromAlways: make([]bool, n)}
	for i := range g.Group {
		g.Group[i] = i
	}
	g.FromAlways[key] = true
	return g
}

// Lemma36ProtocolB realizes the run shape of Lemma 3.6 against Protocol B in
// MP/CR at a point with (2k+1)t >= kn (beyond Protocol B's own region): the
// processes split into k groups of n-2t with distinct uniform inputs plus a
// mixed remainder. Under a prefer-intra-group schedule each group member
// fills its n-t quota with its n-2t group messages (all matching its input,
// exactly the decision threshold) plus cross traffic, and decides its group
// value; remainder processes see nothing often enough and decide the
// default — k+1 distinct decisions.
//
// Preconditions: (2k+1)t >= kn, n > 2t (so group size n-2t >= 1) and a
// non-empty remainder, i.e. k(n-2t) < n.
func Lemma36ProtocolB(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < 1 {
		return nil, fmt.Errorf("%w: need 2 <= k < n and t >= 1, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	if (2*k+1)*t < k*n {
		return nil, fmt.Errorf("%w: need (2k+1)t >= kn (Lemma 3.6 region), got n=%d k=%d t=%d",
			ErrOutOfRange, n, k, t)
	}
	size := n - 2*t
	if size < 1 {
		return nil, fmt.Errorf("%w: group size n-2t=%d, need n > 2t", ErrOutOfRange, size)
	}
	if k*size >= n {
		return nil, fmt.Errorf("%w: no remainder: k(n-2t)=%d >= n=%d", ErrOutOfRange, k*size, n)
	}
	inputs := make([]types.Value, n)
	groups := make([][]types.ProcessID, 0, k+1)
	next := 0
	for gi := 0; gi < k; gi++ {
		members := make([]types.ProcessID, 0, size)
		for j := 0; j < size; j++ {
			inputs[next] = types.Value(gi + 1)
			members = append(members, types.ProcessID(next))
			next++
		}
		groups = append(groups, members)
	}
	rest := make([]types.ProcessID, 0, n-next)
	for i := 0; next < n; next++ {
		inputs[next] = types.Value(k + 2 + i) // distinct junk: never matches
		rest = append(rest, types.ProcessID(next))
		i++
	}
	groups = append(groups, rest)
	return &Construction{
		Name:     "lemma3.6-protocolB",
		Lemma:    "Lemma 3.6",
		Expect:   "agreement",
		Validity: types.SV2,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolB() },
			Scheduler:   mpnet.NewPreferIntra(n, groups),
		},
	}, nil
}

// Lemma39ProtocolA realizes Lemma 3.9's run against Protocol A in MP/Byz at
// a point with t >= k:
//
// Case t >= n/2: the n-t-1 faulty processes F isolate the t+1 correct
// processes from one another and present persona v_i to correct p_i, so each
// p_i sees n-t unanimous v_i messages and decides v_i — t+1 > k distinct
// decisions.
//
// Case t < n/2 (with (2k+1)t >= kn): the correct processes are partitioned
// into k+1 groups of size >= n-2t; the t faulty processes claim persona v_i
// to group g_i, so every member of g_i sees |g_i| + t >= n-t unanimous v_i
// messages — k+1 distinct decisions.
func Lemma39ProtocolA(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < k {
		return nil, fmt.Errorf("%w: need 2 <= k < n and t >= k, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	inputs := make([]types.Value, n)
	byz := make(map[types.ProcessID]mpnet.Protocol)
	fromAlways := make([]bool, n)

	if 2*t >= n {
		f := n - t - 1
		if f < 1 {
			return nil, fmt.Errorf("%w: n-t-1=%d faulty processes needed", ErrOutOfRange, f)
		}
		// Correct processes: ids 0..t (t+1 of them), personas v_i = i+1.
		// Faulty: ids t+1..n-1.
		personas := make(map[types.ProcessID]types.Value, t+1)
		groups := make([][]types.ProcessID, 0, t+2)
		for i := 0; i <= t; i++ {
			inputs[i] = types.Value(i + 1)
			personas[types.ProcessID(i)] = types.Value(i + 1)
			groups = append(groups, []types.ProcessID{types.ProcessID(i)})
		}
		var fgroup []types.ProcessID
		for i := t + 1; i < n; i++ {
			inputs[i] = types.Value(1)
			byz[types.ProcessID(i)] = NewPersonaInput(personas, 1)
			fromAlways[i] = true
			fgroup = append(fgroup, types.ProcessID(i))
		}
		groups = append(groups, fgroup)
		gate := mpnet.NewGroupGate(n, groups)
		gate.FromAlways = fromAlways
		return &Construction{
			Name:     "lemma3.9-protocolA-case1",
			Lemma:    "Lemma 3.9 (case t >= n/2)",
			Expect:   "agreement",
			Validity: types.WV2,
			MP: &mpnet.Config{
				N: n, T: t, K: k,
				Inputs:      inputs,
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() },
				Byzantine:   byz,
				Scheduler:   gate,
			},
		}, nil
	}

	if (2*k+1)*t < k*n {
		return nil, fmt.Errorf("%w: need (2k+1)t >= kn in case t < n/2, got n=%d k=%d t=%d",
			ErrOutOfRange, n, k, t)
	}
	size := n - 2*t
	if (k+1)*size+t > n {
		return nil, fmt.Errorf("%w: cannot fit k+1 groups of %d plus %d faulty in n=%d",
			ErrOutOfRange, size, t, n)
	}
	personas := make(map[types.ProcessID]types.Value, n-t)
	groups := make([][]types.ProcessID, 0, k+2)
	next := 0
	for gi := 0; gi <= k; gi++ {
		members := make([]types.ProcessID, 0, size)
		for j := 0; j < size; j++ {
			inputs[next] = types.Value(gi + 1)
			personas[types.ProcessID(next)] = types.Value(gi + 1)
			members = append(members, types.ProcessID(next))
			next++
		}
		groups = append(groups, members)
	}
	// Any correct leftovers join the last group's persona.
	var rest []types.ProcessID
	for ; next < n-t; next++ {
		inputs[next] = types.Value(k + 1)
		personas[types.ProcessID(next)] = types.Value(k + 1)
		rest = append(rest, types.ProcessID(next))
	}
	if len(rest) > 0 {
		groups[len(groups)-1] = append(groups[len(groups)-1], rest...)
	}
	var fgroup []types.ProcessID
	for ; next < n; next++ {
		inputs[next] = types.Value(1)
		byz[types.ProcessID(next)] = NewPersonaInput(personas, 1)
		fromAlways[next] = true
		fgroup = append(fgroup, types.ProcessID(next))
	}
	groups = append(groups, fgroup)
	gate := mpnet.NewGroupGate(n, groups)
	gate.FromAlways = fromAlways
	return &Construction{
		Name:     "lemma3.9-protocolA-case2",
		Lemma:    "Lemma 3.9 (case t < n/2)",
		Expect:   "agreement",
		Validity: types.WV2,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() },
			Byzantine:   byz,
			Scheduler:   gate,
		},
	}, nil
}

// Lemma310FloodMin realizes Lemma 3.10's run: a single Byzantine process
// claims an input (0) smaller than every real input (1..n), and every
// correct FloodMin process hears it first and decides 0 — a value that is
// nobody's input. RV1 is violated with one fault, at every point with
// n-t >= 2, matching the lemma's "no protocol for SC(k, t, RV1)" in MP/Byz;
// at t = n-1 every process decides its own input in its Start, before it
// hears anyone.
func Lemma310FloodMin(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < 1 || t > n-2 {
		return nil, fmt.Errorf("%w: need 2 <= k < n and 1 <= t <= n-2, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	return &Construction{
		Name:     "lemma3.10-floodmin",
		Lemma:    "Lemma 3.10",
		Expect:   "RV1",
		Validity: types.RV1,
		MP: &mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			Byzantine: map[types.ProcessID]mpnet.Protocol{
				types.ProcessID(n - 1): NewPersonaInput(nil, 0),
			},
			Scheduler: keySenderFirst(n, types.ProcessID(n-1)),
		},
	}, nil
}

// Lemma43ProtocolF realizes Lemma 4.3's run against Protocol F in SM/CR at a
// point with t >= n/2 and t >= k: processes g = p1..p_{t+1} hold distinct
// inputs and run while everyone else takes no step until g decides (the
// Hold schedule). Each p_i's successful scan then reads r <= t+1 registers:
// either r <= t (decide own input directly) or r = t+1 = t+i with i = 1 and
// its own value present (decide own input by the votes rule). Every member
// of g therefore decides its own value, for any intra-group interleaving;
// the released processes then scan r >= t+2 registers holding all-distinct
// values and decide the default — t+2 > k distinct decisions in total.
func Lemma43ProtocolF(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < k || 2*t < n {
		return nil, fmt.Errorf("%w: need 2 <= k < n, t >= k, 2t >= n; got n=%d k=%d t=%d",
			ErrOutOfRange, n, k, t)
	}
	if t+1 >= n {
		return nil, fmt.Errorf("%w: need t+1 < n, got t=%d n=%d", ErrOutOfRange, t, n)
	}
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i + 1)
	}
	var g, held []types.ProcessID
	for i := 0; i <= t; i++ {
		g = append(g, types.ProcessID(i))
	}
	for i := t + 1; i < n; i++ {
		held = append(held, types.ProcessID(i))
	}
	return &Construction{
		Name:     "lemma4.3-protocolF",
		Lemma:    "Lemma 4.3",
		Expect:   "agreement",
		Validity: types.SV2,
		SM: &smmem.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolF() },
			Scheduler:   smmem.NewHold(n, held, g),
		},
	}, nil
}

// Lemma49ProtocolE realizes Lemma 4.9's flavour of attack against
// Protocol E's RV2 claim in SM/Byz: every process (faulty ones included) is
// assigned the same input v, but the Byzantine process writes a different
// value u into its input register before anyone scans. Correct scans then
// read both v and u and decide the default value v0 — although "all
// processes started with v", violating RV2 with a single fault. (Protocol E
// only claims WV2 in SM/Byz, which this run does not violate: it has a
// failure.)
func Lemma49ProtocolE(n, k, t int) (*Construction, error) {
	if k < 2 || k >= n || t < 1 {
		return nil, fmt.Errorf("%w: need 2 <= k < n and t >= 1, got n=%d k=%d t=%d", ErrOutOfRange, n, k, t)
	}
	const v = types.Value(7)
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = v
	}
	liar := types.ProcessID(n - 1)
	return &Construction{
		Name:     "lemma4.9-protocolE",
		Lemma:    "Lemma 4.9",
		Expect:   "RV2",
		Validity: types.RV2,
		SM: &smmem.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
			Byzantine: map[types.ProcessID]smmem.Protocol{
				liar: smProtoFunc(func(api smmem.API) {
					api.WriteValue(sm.InputRegister, 0, v+1)
				}),
			},
			// The liar writes first; everyone else is held until it is done.
			// Held processes are released once watched ones decide; the liar
			// never decides, so we watch nobody — instead we use Starve in
			// reverse: starve the correct processes until the liar exits.
			Scheduler: smmem.NewStarve(n, correctIDs(n, liar)...),
		},
	}, nil
}

// smProtoFunc adapts a function to smmem.Protocol.
type smProtoFunc func(smmem.API)

// Start implements smmem.Protocol.
func (f smProtoFunc) Start(api smmem.API) { f(api) }

func correctIDs(n int, faulty types.ProcessID) []types.ProcessID {
	out := make([]types.ProcessID, 0, n-1)
	for i := 0; i < n; i++ {
		if types.ProcessID(i) != faulty {
			out = append(out, types.ProcessID(i))
		}
	}
	return out
}
