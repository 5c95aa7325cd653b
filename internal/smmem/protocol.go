// Package smmem implements the paper's asynchronous shared-memory model
// (Section 4): processes communicate through single-writer multi-reader
// atomic registers. The memory itself never fails; processes accessing it
// may crash or behave arbitrarily, but even a Byzantine process can only
// write registers it owns — the API makes violating single-writer physically
// impossible, mirroring the middleware systems the paper cites that
// "guarantee that shared objects themselves do not fail".
//
// Atomicity and determinism come from running one thing at a time: each
// process is a coroutine, every register operation it performs suspends it
// until granted, and one loop on the goroutine that called Run grants exactly
// one operation at a time, in an order chosen by a (possibly adversarial)
// policy from a seeded random stream — ask the policy who goes next, perform
// that process's operation on the memory, resume it until it posts its next
// one. No goroutine is started and nothing is shared between threads.
// Operations are therefore trivially linearizable and a run is a pure
// function of (protocol, parameters, adversary, seed). A poll (API.Poll) is a
// loop of reads, each granted and traced as one Read, that the loop itself
// moves past a miss and hands a hit to the poll's handler on its own stack:
// a waiting process is resumed only when the handler ends the poll. A miss
// that no write since the poll's last pass over its list could have changed
// is answered without looking the register up. A scan (API.Scan) reads a
// list once in order the same way, handing every read to its visitor, and
// resumes the process once, after the last. The writes a handler or visitor
// makes are the process's next operations: the loop grants them one by one
// after it returns, before the call's next read.
//
// Registers are created on first write and named by an owner and a text;
// dynamic creation supports the unbounded register sequences of the paper's
// SIMULATION transformation. A text that ends in a decimal index, like
// "bc/5", is that index of a numbered family ("bc/"): the memory keeps each
// owner's family as one slice, and a Reg may name the register by family
// and index, so a poll that moves along a family reads by position and
// never builds or hashes a name. A register holds a types.Payload;
// protocols that only need plain values use the KindInput payload wrapper.
package smmem

import (
	"kset/internal/prng"
	"kset/internal/types"
)

// Protocol is the behaviour of one shared-memory process: Run executes the
// whole protocol, suspended inside API calls whenever it touches the memory.
// Run should return when the process is done; processes that must keep
// "helping" (e.g. the SIMULATION wrapper) may loop forever and will be
// unwound by the runtime once every correct process has decided. A panic in
// Run ends the run and reaches the caller of smmem.Run.
type Protocol interface {
	Run(api API)
}

// API is the interface the runtime hands to shared-memory protocol code.
// All methods must be called from within Protocol.Run, not from a goroutine it
// starts.
type API interface {
	// ID returns this process's identity.
	ID() types.ProcessID
	// N returns the number of processes.
	N() int
	// T returns the declared failure bound t.
	T() int
	// K returns the agreement bound k.
	K() int
	// Input returns this process's input value.
	Input() types.Value
	// Write atomically writes p into this process's register named reg,
	// creating it if needed. Only the owner can ever write it.
	Write(reg string, p types.Payload)
	// Read atomically reads register reg of owner. ok is false when the
	// register has never been written.
	Read(owner types.ProcessID, reg string) (p types.Payload, ok bool)
	// WriteValue is shorthand for Write with a KindInput payload.
	WriteValue(reg string, v types.Value)
	// ReadValue is shorthand for Read returning just the payload value.
	ReadValue(owner types.ProcessID, reg string) (v types.Value, ok bool)
	// Poll reads regs[start], regs[start+1], ... cyclically and hands every
	// read that finds a value to hit, with the register's index. When hit
	// returns true the poll goes on from regs[i] — which hit may have
	// replaced, or moved on by its Index — and when it returns false Poll
	// returns. It is the loop of Reads it replaces, with the writes hit
	// makes performed in order right after it returns (text(r) is the text
	// of the register r names, see Reg):
	//
	//	for i := start; ; {
	//		p, ok := Read(regs[i].Owner, text(regs[i]))
	//		if !ok { i = (i + 1) % len(regs); continue }
	//		more := hit(i, p) // then hit's writes, each a Write
	//		if !more { return }
	//	}
	//
	// Each read and each write is one granted operation, scheduled,
	// budgeted, crashable and traced. No process code runs between them but
	// hit, so a decision made before the call is visible once the first
	// read is posted, and one made in hit once hit returns, before its
	// writes. hit may change process state, call Decide, HasDecided and the
	// accessors, and Write and WriteValue; a Read, Poll or Scan (and
	// ReadValue) inside it panics under Run, which calls hit on its own
	// goroutine between two grants. An empty list or a start outside it
	// panics too, and so does a read of a Reg whose Index is negative, or
	// non-zero on a Name that does not end in '/'.
	Poll(start int, regs []Reg, hit func(i int, p types.Payload) bool)
	// Scan reads regs[0], ..., regs[len(regs)-1] once each, in order, and
	// hands every read, hit or miss, to visit. It is the loop
	//
	//	for i := range regs {
	//		p, ok := Read(regs[i].Owner, text(regs[i]))
	//		visit(i, p, ok) // then visit's writes, each a Write
	//	}
	//
	// and visit is bound by the rules of Poll's hit: under Run it is called
	// on Run's goroutine, a decision made in it is visible once it returns,
	// its writes are the process's next operations, and a Read, Poll or
	// Scan inside it, or a read of a Reg Poll rejects, panics. The process
	// resumes once, after the last read and the writes that follow it. An
	// empty list returns at once, without an operation.
	Scan(regs []Reg, visit func(i int, p types.Payload, ok bool))
	// Decide records this process's irrevocable decision; it costs no
	// memory operation. A correct process must decide at most once.
	Decide(v types.Value)
	// HasDecided reports whether Decide has been called.
	HasDecided() bool
	// Rand returns this process's private deterministic random stream.
	Rand() *prng.Source
}

// Reg names one register for Poll and Scan: Owner's register whose text is
// Name followed by the decimal Index when Name ends in '/', and Name itself
// otherwise, where Index must be 0. A register is its text: Reg{Owner: q,
// Name: "bc/", Index: 5}, Reg{Owner: q, Name: "bc/5"} and Read(q, "bc/5")
// all read the register q's Write("bc/5", ...) writes. A poll or scan read
// whose Name is one of the last two its process's reads looked up is read
// by position in Name's family; any other Name is looked up at the read.
type Reg struct {
	Owner types.ProcessID
	Name  string
	Index int
}

// View exposes run state to schedulers and adversaries. Slices are owned by
// the runtime and must not be mutated.
type View struct {
	N       int
	T       int
	K       int
	Decided []bool
	Crashed []bool
	Faulty  []bool
	Ops     int // register operations granted so far
}

// Scheduler picks which pending process performs the next register
// operation. pending is non-empty, sorted by process id and the runtime's own
// list (read it, do not modify or keep it); returning a process not in
// pending is a programming error and aborts the run. Within one run — one
// *View, the same pointer from the run's first pick to its last — pending
// only shrinks: a process leaves it when it returns or crashes and never
// comes back. A policy may therefore keep what it derives from pending until
// the view changes or len(pending) drops, and may keep the view pointer to
// tell runs apart.
//
// Next — like CrashAdversary.CrashBeforeOp, Config.Trace and the Recorder —
// is always called on the goroutine that called Run, between two steps of the
// processes, so implementations may keep unguarded state.
type Scheduler interface {
	Next(view *View, pending []types.ProcessID, rng *prng.Source) types.ProcessID
}

// CrashAdversary injects crash failures between register operations (an
// atomic register operation cannot be half-performed). The runtime enforces
// the fault budget t and, like Scheduler.Next, always calls it on the
// goroutine that called Run.
type CrashAdversary interface {
	// CrashBeforeOp is consulted before granting p its opIndex-th
	// operation; returning true crashes p instead.
	CrashBeforeOp(view *View, p types.ProcessID, opIndex int) bool
}
