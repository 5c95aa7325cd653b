package sm

import (
	"fmt"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/smmem"
	"kset/internal/types"
)

// fakeMem is an in-memory smmem.API for unit-testing shared-memory protocol
// logic without the turn scheduler: all operations are immediate.
type fakeMem struct {
	id      types.ProcessID
	n, t, k int
	input   types.Value
	rng     *prng.Source

	regs     map[smmem.Reg]types.Payload
	decided  bool
	decision types.Value
	reads    int
	scans    [][]smmem.Reg // the list of every Scan, in call order
}

var _ smmem.API = (*fakeMem)(nil)

func newFakeMem(id types.ProcessID, n, t, k int, input types.Value) *fakeMem {
	return &fakeMem{
		id: id, n: n, t: t, k: k, input: input,
		rng:  prng.New(1),
		regs: make(map[smmem.Reg]types.Payload),
	}
}

func (f *fakeMem) ID() types.ProcessID { return f.id }
func (f *fakeMem) N() int              { return f.n }
func (f *fakeMem) T() int              { return f.t }
func (f *fakeMem) K() int              { return f.k }
func (f *fakeMem) Input() types.Value  { return f.input }
func (f *fakeMem) HasDecided() bool    { return f.decided }
func (f *fakeMem) Rand() *prng.Source  { return f.rng }

func (f *fakeMem) Write(name string, index int, p types.Payload) {
	f.regs[smmem.Reg{Owner: f.id, Name: name, Index: index}] = p
}

func (f *fakeMem) Read(r smmem.Reg) (types.Payload, bool) {
	f.reads++
	p, ok := f.regs[r]
	return p, ok
}

// Poll reads from start until hit ends the poll; nothing else can write
// while it waits, so a full round of misses would be a wait forever.
func (f *fakeMem) Poll(start int, regs []smmem.Reg, hit func(int, types.Payload) bool) {
	for c, misses := start, 0; misses < len(regs); {
		p, ok := f.Read(regs[c])
		switch {
		case !ok:
			c, misses = (c+1)%len(regs), misses+1
		case !hit(c, p):
			return
		default:
			misses = 0
		}
	}
	panic("fakeMem: Poll would wait forever")
}

// Scan is the loop of Reads it replaces.
func (f *fakeMem) Scan(regs []smmem.Reg, visit func(int, types.Payload, bool)) {
	f.scans = append(f.scans, append([]smmem.Reg(nil), regs...))
	for i := range regs {
		p, ok := f.Read(regs[i])
		visit(i, p, ok)
	}
}

func (f *fakeMem) WriteValue(name string, index int, v types.Value) {
	f.Write(name, index, types.Payload{Kind: types.KindInput, Value: v})
}

func (f *fakeMem) Decide(v types.Value) {
	if !f.decided {
		f.decided, f.decision = true, v
	}
}

// seed pre-writes another process's input register.
func (f *fakeMem) seed(owner types.ProcessID, v types.Value) {
	f.regs[smmem.Reg{Owner: owner, Name: InputRegister}] = types.Payload{Kind: types.KindInput, Value: v}
}

func TestProtocolEDecidesCommonValue(t *testing.T) {
	m := newFakeMem(0, 4, 1, 2, 6)
	m.seed(1, 6)
	m.seed(2, 6)
	// p4's register unwritten: skipped by the scan.
	NewProtocolE().Run(m)
	if !m.decided || m.decision != 6 {
		t.Fatalf("decision = %v, want 6", m.decision)
	}
}

func TestProtocolEDecidesDefaultOnMixedScan(t *testing.T) {
	m := newFakeMem(0, 4, 1, 2, 6)
	m.seed(1, 7)
	NewProtocolE().Run(m)
	if !m.decided || m.decision != types.DefaultValue {
		t.Fatalf("decision = %v, want default", m.decision)
	}
}

func TestProtocolEScansExactlyOnce(t *testing.T) {
	m := newFakeMem(0, 5, 2, 2, 3)
	NewProtocolE().Run(m)
	if m.reads != 5 || len(m.scans) != 1 || len(m.scans[0]) != 5 {
		t.Fatalf("%d reads in %d scans, want one scan of n=5 registers", m.reads, len(m.scans))
	}
	for q, reg := range m.scans[0] {
		if reg != (smmem.Reg{Owner: types.ProcessID(q), Name: InputRegister}) {
			t.Errorf("the scan's register %d is %+v, want every process's %q in id order", q, reg, InputRegister)
		}
	}
}

func TestProtocolFVotesRule(t *testing.T) {
	// n=6, t=2: scan succeeds at r >= 4. r = 5 = t+i with i = 3: decide own
	// input iff >= 3 of the 5 values equal it.
	m := newFakeMem(0, 6, 2, 4, 5)
	m.seed(1, 5)
	m.seed(2, 5)
	m.seed(3, 9)
	m.seed(4, 9)
	NewProtocolF().Run(m)
	if !m.decided || m.decision != 5 {
		t.Fatalf("decision = %v, want own input 5 (3 votes >= i=3)", m.decision)
	}

	m2 := newFakeMem(0, 6, 2, 4, 5)
	m2.seed(1, 9)
	m2.seed(2, 9)
	m2.seed(3, 9)
	m2.seed(4, 8)
	NewProtocolF().Run(m2)
	if !m2.decided || m2.decision != types.DefaultValue {
		t.Fatalf("decision = %v, want default (1 vote < i=3)", m2.decision)
	}
}

func TestProtocolFDecidesOwnWhenFewRegisters(t *testing.T) {
	// n=4, t=3: n-t = 1, own write alone satisfies the scan; r = 1 <= t,
	// so the process decides its own input outright.
	m := newFakeMem(0, 4, 3, 2, 42)
	NewProtocolF().Run(m)
	if !m.decided || m.decision != 42 {
		t.Fatalf("decision = %v, want 42 (r <= t branch)", m.decision)
	}
}

// TestSimulationCarriesFloodMin runs FloodMin through the SIMULATION
// transformation on the real shared-memory runtime and checks it reaches the
// same answer as in message passing: the minimum input.
func TestSimulationCarriesFloodMin(t *testing.T) {
	const n = 5
	inputs := []types.Value{5, 3, 9, 1, 7}
	rec, err := smmem.Run(smmem.Config{
		N: n, T: 1, K: 2,
		Inputs: inputs,
		NewProtocol: func(types.ProcessID) smmem.Protocol {
			return NewSimulation(mp.NewFloodMin())
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if !rec.Decided[i] {
			t.Fatalf("process %d undecided", i)
		}
	}
	// With no failures, every process eventually collects n-t values whose
	// minimum is at most the t+1 smallest inputs; all decisions must be
	// genuine inputs.
	valid := map[types.Value]bool{5: true, 3: true, 9: true, 1: true, 7: true}
	for i := 0; i < n; i++ {
		if !valid[rec.Decisions[i]] {
			t.Errorf("process %d decided %d, not an input", i, rec.Decisions[i])
		}
	}
}

// TestSimulationPointToPoint exercises the msg/<q>/<i> register path with a
// protocol that sends individually rather than broadcasting.
func TestSimulationPointToPoint(t *testing.T) {
	const n = 3
	rec, err := smmem.Run(smmem.Config{
		N: n, T: 0, K: 1,
		Inputs: []types.Value{10, 20, 30},
		NewProtocol: func(types.ProcessID) smmem.Protocol {
			return NewSimulation(&p2pSummer{})
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every process decides the sum of all inputs (60), delivered by
	// point-to-point sends only.
	for i := 0; i < n; i++ {
		if !rec.Decided[i] || rec.Decisions[i] != 60 {
			t.Errorf("process %d decided %v, want 60", i, rec.Decisions[i])
		}
	}
}

// strayer is a protocol whose process 1 sends to id n, which no process
// has; the others wait.
type strayer struct{}

func (strayer) Start(api mpnet.API) {
	if api.ID() == 1 {
		api.Send(types.ProcessID(api.N()), types.Payload{Kind: types.KindInput, Value: api.Input()})
	}
}
func (strayer) Deliver(mpnet.API, types.ProcessID, types.Payload) {}

// TestSimulationSendOutOfRange: a send to an id outside 0..n-1 panics at
// the send, and the panic that reaches Run's caller names the sender, the
// id and n.
func TestSimulationSendOutOfRange(t *testing.T) {
	const n = 3
	var r any
	func() {
		defer func() { r = recover() }()
		_, _ = smmem.Run(smmem.Config{
			N: n, T: 0, K: 1,
			Inputs:      []types.Value{1, 2, 3},
			NewProtocol: func(types.ProcessID) smmem.Protocol { return NewSimulation(strayer{}) },
			Seed:        1,
		})
	}()
	msg, _ := r.(string)
	if want := "sm: SIMULATION: p2 sent to id 3, outside 0..2 for n=3"; msg != want {
		t.Errorf("Run's caller recovered %v, want %q", r, want)
	}
}

// p2pSummer sends its input individually to each peer and decides the sum of
// everything received (its own input included).
type p2pSummer struct {
	sum   types.Value
	count int
}

func (p *p2pSummer) Start(api mpnet.API) {
	p.sum = api.Input()
	p.count = 1
	for q := 0; q < api.N(); q++ {
		if types.ProcessID(q) == api.ID() {
			continue
		}
		api.Send(types.ProcessID(q), types.Payload{Kind: types.KindInput, Value: api.Input()})
	}
	p.maybeDecide(api)
}

func (p *p2pSummer) Deliver(api mpnet.API, _ types.ProcessID, pay types.Payload) {
	p.sum += pay.Value
	p.count++
	p.maybeDecide(api)
}

func (p *p2pSummer) maybeDecide(api mpnet.API) {
	if !api.HasDecided() && p.count == api.N() {
		api.Decide(p.sum)
	}
}

// chatter keeps answering: every delivery triggers one more broadcast and one
// more point-to-point message back, up to a limit that takes the per-peer
// cursors past 9 so the register names grow a digit.
type chatter struct{ sent int }

func (c *chatter) Start(api mpnet.API) {
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (c *chatter) Deliver(api mpnet.API, from types.ProcessID, pay types.Payload) {
	if from == api.ID() {
		return
	}
	if c.sent == 25 {
		if !api.HasDecided() {
			api.Decide(pay.Value)
		}
		return
	}
	c.sent++
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: types.Value(c.sent)})
	api.Send(from, types.Payload{Kind: types.KindInput, Value: types.Value(c.sent)})
}

// TestSimulationRegisterNames pins the register layout and the polling order
// from the trace: a process writes bc/0, bc/1, ... and msg/<q>/0, msg/<q>/1,
// ... in sequence, and every read of a peer is of exactly the register that
// peer's cursor points at, the cursor moving on after a read that found a
// value and only then.
func TestSimulationRegisterNames(t *testing.T) {
	const n = 4
	type channel struct {
		reader, owner types.ProcessID
		p2p           bool
	}
	readCursor := map[channel]int{}
	type outbox struct {
		owner types.ProcessID
		to    int // -1: broadcasts
	}
	written := map[outbox]int{}
	reads, maxCursor := 0, 0
	_, err := smmem.Run(smmem.Config{
		N: n, T: 0, K: n,
		Inputs:      []types.Value{1, 2, 3, 4},
		NewProtocol: func(types.ProcessID) smmem.Protocol { return NewSimulation(&chatter{}) },
		Seed:        7,
		Trace: func(ev smmem.TraceEvent) {
			switch ev.Type {
			case smmem.EvWrite:
				var to, seq int
				box := outbox{owner: ev.Proc, to: -1}
				if _, err := fmt.Sscanf(ev.Register, "msg/%d/%d", &to, &seq); err == nil {
					box.to = to
				} else if _, err := fmt.Sscanf(ev.Register, "bc/%d", &seq); err != nil {
					t.Errorf("%s wrote %q: not a SIMULATION register", ev.Proc, ev.Register)
					return
				}
				if seq != written[box] {
					t.Errorf("%s wrote %q, its next there is number %d", ev.Proc, ev.Register, written[box])
				}
				written[box]++
			case smmem.EvRead:
				reads++
				ch := channel{reader: ev.Proc, owner: ev.Owner}
				bc := fmt.Sprintf("bc/%d", readCursor[ch])
				ch.p2p = true
				p2p := fmt.Sprintf("msg/%d/%d", int(ev.Proc), readCursor[ch])
				switch ev.Register {
				case bc:
					ch.p2p = false
				case p2p:
				default:
					t.Errorf("%s read %s/%q, its cursors there point at %q and %q", ev.Proc, ev.Owner, ev.Register, bc, p2p)
					return
				}
				if ev.Present {
					readCursor[ch]++
					maxCursor = max(maxCursor, readCursor[ch])
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 || maxCursor < 11 {
		t.Fatalf("%d reads, highest cursor %d: the run did not get far enough to pin multi-digit names", reads, maxCursor)
	}
}
