package theory

import (
	"fmt"
	"strings"

	"kset/internal/types"
)

// Status labels a point (k, t) of one problem variant.
type Status uint8

// Point statuses. Open marks the gaps the paper leaves between its
// possibility and impossibility results.
const (
	Solvable Status = iota + 1
	Impossible
	Open
)

// String returns "solvable", "impossible" or "open".
func (s Status) String() string {
	switch s {
	case Solvable:
		return "solvable"
	case Impossible:
		return "impossible"
	case Open:
		return "open"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result is the classification of one (model, validity, n, k, t) point.
type Result struct {
	Status Status
	// Lemma cites the paper result that establishes the status
	// ("Lemma 3.7", "Lemma 3.11 (via RV2 weaker than SV2)", ...). Empty for
	// open points.
	Lemma string
	// Protocol names the protocol witnessing solvability (empty otherwise),
	// e.g. "Protocol C(2) via SIMULATION".
	Protocol string
	// Proto identifies the witness protocol for programmatic use.
	Proto ProtocolID
	// EchoEll is the echo parameter l when Proto is ProtoC.
	EchoEll int
	// ViaSimulation reports that the witness is a message-passing protocol
	// carried to shared memory by the SIMULATION transformation.
	ViaSimulation bool
}

var open = Result{Status: Open}

// protoCNames precomputes the "Protocol C(l)" witness labels for the small l
// that occur in practice, so grid computation does not Sprintf per cell. The
// table is built once at init and never mutated, so concurrent reads (the
// sweep engine classifies cells from many workers) are safe.
var protoCNames, protoCSimNames = func() (plain, sim [33]string) {
	for l := 1; l < len(plain); l++ {
		plain[l] = fmt.Sprintf("Protocol C(%d)", l)
		sim[l] = plain[l] + " via SIMULATION"
	}
	return
}()

func protoCName(l int) string {
	if l > 0 && l < len(protoCNames) {
		return protoCNames[l]
	}
	return fmt.Sprintf("Protocol C(%d)", l)
}

func protoCSimName(l int) string {
	if l > 0 && l < len(protoCSimNames) {
		return protoCSimNames[l]
	}
	return fmt.Sprintf("Protocol C(%d) via SIMULATION", l)
}

// echoEll memoizes BestEchoEll for one (n, k, t) point so that the panels of
// one figure — up to three validities consult the echo region at the same
// point — share a single scan. A pure value type: no locks, safe to use from
// the classifier regardless of how callers parallelize around it.
type echoEll struct {
	n, k, t int
	l       int
	done    bool
}

func (e *echoEll) get() int {
	if !e.done {
		e.l = BestEchoEll(e.n, e.k, e.t)
		e.done = true
	}
	return e.l
}

// lemma is one result of the paper: proto solves SC(k, t, validity) in
// model wherever region holds (viaSim: an MP protocol run by SIMULATION),
// or, when proto is ProtoNone, the problem is impossible there. Protocol C's
// rows have no region function: theirs is Lemma 3.15's for the smallest
// feasible l, found by the memoized BestEchoEll scan.
type lemma struct {
	model    types.Model
	validity types.Validity
	id       string
	proto    ProtocolID
	viaSim   bool
	region   func(n, k, t int) bool
}

func always(_, _, _ int) bool          { return true }
func floodMinRegion(_, k, t int) bool  { return FloodMinRegion(k, t) }
func tAtLeastK(_, k, t int) bool       { return !FloodMinRegion(k, t) }
func protocolFRegion(_, k, t int) bool { return ProtocolFRegion(k, t) }

// lemmas lists the paper's results: 15 protocols, then 14 impossibilities
// in lemma order. The protocols' order is the classifier's preference among
// witnesses whose regions overlap: within a model, a protocol run directly
// before one run by SIMULATION, and the paper's own protocols by letter
// before FloodMin.
var lemmas = []lemma{
	{types.MPCR, types.RV2, "Lemma 3.7", ProtoA, false, ProtocolARegion},
	{types.MPCR, types.SV2, "Lemma 3.8", ProtoB, false, ProtocolBRegion},
	{types.MPCR, types.RV1, "Lemma 3.1", ProtoFloodMin, false, floodMinRegion},
	{types.MPByz, types.WV2, "Lemma 3.12", ProtoA, false, func(n, k, t int) bool {
		return 2*t < n && ProtocolAByzWV2Region(n, k, t)
	}},
	{types.MPByz, types.WV2, "Lemma 3.13", ProtoA, false, func(n, k, t int) bool {
		return 2*t >= n && ProtocolAByzWV2Region(n, k, t)
	}},
	{types.MPByz, types.SV2, "Lemma 3.15", ProtoC, false, nil},
	{types.MPByz, types.WV1, "Lemma 3.16", ProtoD, false, ProtocolDRegion},
	{types.SMCR, types.RV2, "Lemma 4.5", ProtoE, false, always},
	{types.SMCR, types.SV2, "Lemma 4.7", ProtoF, false, protocolFRegion},
	{types.SMCR, types.SV2, "Lemma 4.6", ProtoB, true, ProtocolBRegion},
	{types.SMCR, types.RV1, "Lemma 4.4", ProtoFloodMin, true, floodMinRegion},
	{types.SMByz, types.WV2, "Lemma 4.10", ProtoE, false, always},
	{types.SMByz, types.SV2, "Lemma 4.12", ProtoF, false, protocolFRegion},
	{types.SMByz, types.SV2, "Lemma 4.11", ProtoC, true, nil},
	{types.SMByz, types.WV1, "Lemma 4.13", ProtoD, true, ProtocolDRegion},

	{types.MPCR, types.RV1, "Lemma 3.2", ProtoNone, false, tAtLeastK},
	{types.MPCR, types.WV2, "Lemma 3.3", ProtoNone, false, Lemma33Impossible},
	{types.MPCR, types.WV1, "Lemma 3.4", ProtoNone, false, tAtLeastK},
	{types.MPCR, types.SV1, "Lemma 3.5", ProtoNone, false, always},
	{types.MPCR, types.SV2, "Lemma 3.6", ProtoNone, false, Lemma36Impossible},
	{types.MPByz, types.WV2, "Lemma 3.9", ProtoNone, false, Lemma39Impossible},
	{types.MPByz, types.RV1, "Lemma 3.10", ProtoNone, false, always},
	{types.MPByz, types.RV2, "Lemma 3.11", ProtoNone, false, Lemma311Impossible},
	{types.SMCR, types.RV1, "Lemma 3.2 (holds in both crash models)", ProtoNone, false, tAtLeastK},
	{types.SMCR, types.WV1, "Lemma 4.1", ProtoNone, false, tAtLeastK},
	{types.SMCR, types.SV1, "Lemma 4.2", ProtoNone, false, always},
	{types.SMCR, types.SV2, "Lemma 4.3", ProtoNone, false, Lemma43Impossible},
	{types.SMByz, types.RV1, "Lemma 4.8", ProtoNone, false, always},
	{types.SMByz, types.RV2, "Lemma 4.9", ProtoNone, false, Lemma49Impossible},
}

// impossibilityCarries reports whether an impossibility in model from holds
// in model to: a crash is a legal Byzantine behaviour. Results stay within
// one communication model; across them the named SIMULATION rows and the
// rows each model has of its own already state every result.
func impossibilityCarries(from, to types.Model) bool {
	return from.Comm == to.Comm && (from.Failure == to.Failure || from.Failure == types.Crash)
}

// candidate is one lemma as it applies to one panel: its region and the
// result it yields there, citation included.
type candidate struct {
	region func(n, k, t int) bool
	result Result
}

// panels holds each panel's candidates in the order classifyInterior tries
// them, indexed [Comm][Failure][Validity]; entries outside the paper's four
// models and six validities stay empty. Built once at init, read-only after.
var panels = func() (p [3][3][7][]candidate) {
	for _, m := range types.AllModels() {
		for _, v := range types.AllValidities() {
			p[m.Comm][m.Failure][v] = candidates(m, v)
		}
	}
	return p
}()

// candidates closes the lemma table for one panel under Figure 1 and the
// crash-to-Byzantine carry, in the order classifyInterior tries them: the
// model's protocols for v or a stronger validity, then the impossibilities
// for v, then those for a weaker validity; within each, the model's own rows
// before carried ones, in table order.
func candidates(m types.Model, v types.Validity) []candidate {
	var out []candidate
	for rank := 0; rank < 5; rank++ {
		for _, l := range lemmas {
			if panelRank(l, m, v) == rank {
				out = append(out, candidate{region: l.region, result: resultIn(l, m, v)})
			}
		}
	}
	return out
}

// panelRank places lemma l in panel (m, v)'s order, or returns -1 where l
// does not reach the panel.
func panelRank(l lemma, m types.Model, v types.Validity) int {
	carried := 0
	if l.model != m {
		carried = 1
	}
	switch {
	case l.proto != ProtoNone && l.model == m && WeakerOrEqual(v, l.validity):
		return 0
	case l.proto == ProtoNone && impossibilityCarries(l.model, m) && l.validity == v:
		return 1 + carried
	case l.proto == ProtoNone && impossibilityCarries(l.model, m) && WeakerOrEqual(l.validity, v):
		return 3 + carried
	}
	return -1
}

// resultIn is the result lemma l yields in panel (m, v), its citation naming
// the path by which l reaches the panel.
func resultIn(l lemma, m types.Model, v types.Validity) Result {
	r := Result{Status: Impossible, Lemma: l.id}
	rel := "weaker"
	if l.proto != ProtoNone {
		r = Result{Status: Solvable, Lemma: l.id, Protocol: l.proto.String(), Proto: l.proto, ViaSimulation: l.viaSim}
		if l.viaSim {
			r.Protocol += " via SIMULATION"
		}
		rel = "stronger"
	}
	var via []string
	if l.validity != v {
		via = append(via, fmt.Sprintf("via %v %s than %v", l.validity, rel, v))
	}
	if l.model.Failure != m.Failure {
		via = append(via, "crash impossibility carries to Byzantine")
	}
	if len(via) > 0 {
		r.Lemma += " (" + strings.Join(via, "; ") + ")"
	}
	return r
}

// panelFor returns the candidates of panel (m, v), panicking on a model or
// validity outside the paper's.
func panelFor(m types.Model, v types.Validity) []candidate {
	if types.CheckModel(m) != nil || types.CheckValidity(v) != nil {
		panic(fmt.Sprintf("theory: Classify called with unknown model %v or validity %v", m, v))
	}
	return panels[m.Comm][m.Failure][v]
}

// Classify labels the point (k, t) of problem SC(k, t, validity) with n
// processes in the given model, per the paper's Figures 2, 4, 5 and 6, plus
// the boundary cases the paper settles in Section 2:
//
//   - k >= n: trivially solvable for every validity condition and any t —
//     each process decides its own input.
//   - t = 0: solvable for every validity condition and any k >= 1 (with no
//     failures FloodMin's single round collects every input and everyone
//     decides the global minimum, a correct process's input).
//   - k = 1 with t >= 1: classical consensus, impossible for every
//     nontrivial validity condition in all four models ([17] FLP for
//     message passing, [24] Loui-Abu-Amara for shared memory).
//
// Classify panics on nonsensical parameters (n < 2, k < 1, t < 0) and on a
// model or validity outside the paper's, so misuse is caught early.
func Classify(m types.Model, v types.Validity, n, k, t int) Result {
	if n < 2 || k < 1 || t < 0 {
		panic(fmt.Sprintf("theory: Classify called with nonsensical parameters: n=%d k=%d t=%d", n, k, t))
	}
	cands := panelFor(m, v)
	sm := m.Comm == types.SharedMemory
	if k >= n {
		return Result{Status: Solvable, Lemma: "Section 2 (k >= n is trivial)", Protocol: "Trivial",
			Proto: ProtoTrivial, ViaSimulation: sm}
	}
	if t == 0 {
		return Result{Status: Solvable, Lemma: "Section 2 (t = 0)", Protocol: "FloodMin",
			Proto: ProtoFloodMin, ViaSimulation: sm}
	}
	if k == 1 {
		if sm {
			return Result{Status: Impossible, Lemma: "Section 2 (k = 1: consensus, impossible by [24])"}
		}
		return Result{Status: Impossible, Lemma: "Section 2 (k = 1: consensus, impossible by [17])"}
	}
	ell := echoEll{n: n, k: k, t: t}
	return classifyInterior(cands, n, k, t, &ell)
}

// classifyInterior handles the non-boundary points 2 <= k <= n-1, t >= 1:
// the first candidate whose region holds decides the point, with the
// echo-region scan memoized in ell so figure-wide computations can share it
// across validities.
func classifyInterior(cands []candidate, n, k, t int, ell *echoEll) Result {
	for i := range cands {
		c := &cands[i]
		if c.region != nil {
			if c.region(n, k, t) {
				return c.result
			}
			continue
		}
		if l := ell.get(); l > 0 {
			r := c.result
			r.EchoEll = l
			if r.ViaSimulation {
				r.Protocol = protoCSimName(l)
			} else {
				r.Protocol = protoCName(l)
			}
			return r
		}
	}
	return open
}

// classifyAll classifies one interior-or-boundary (k, t) point under every
// validity condition at once, in types.AllValidities() order, sharing the
// boundary short-circuits and the echo-region scan across the six panels.
// This is the single classifier pass behind ComputeFigure.
func classifyAll(m types.Model, n, k, t int, out []Result) {
	vs := types.AllValidities()
	if k >= n || t == 0 || k == 1 {
		// The Section 2 boundary cases are validity-independent.
		r := Classify(m, vs[0], n, k, t)
		for i := range vs {
			out[i] = r
		}
		return
	}
	ell := echoEll{n: n, k: k, t: t}
	for i, v := range vs {
		out[i] = classifyInterior(panelFor(m, v), n, k, t, &ell)
	}
}
