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
// Registers are created on first write and named by a Reg: an owner, a
// Name and an Index. A Name that ends in '/' ("bc/") is a numbered family
// whose registers are its Indexes; any other Name ("input") is one register,
// Index 0. Dynamic creation supports the unbounded register sequences of the
// paper's SIMULATION transformation: the memory keeps each owner's family as
// one slice, so a process that moves along a family reads and writes by
// position and never builds or hashes a name. A register holds a
// types.Payload; protocols that only need plain values use the KindInput
// payload wrapper.
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
	// Write atomically writes p into this process's register Reg{ID(),
	// name, index}, creating it if needed. Only the owner can ever write it.
	Write(name string, index int, p types.Payload)
	// Read atomically reads register r. ok is false when the register has
	// never been written.
	Read(r Reg) (p types.Payload, ok bool)
	// WriteValue is shorthand for Write with a KindInput payload.
	WriteValue(name string, index int, v types.Value)
	// Poll reads regs[start], regs[start+1], ... cyclically and hands every
	// read that finds a value to hit, with the register's index. When hit
	// returns true the poll goes on from regs[i] — which hit may have
	// replaced, or moved on by its Index — and when it returns false Poll
	// returns. It is the loop of Reads it replaces, with the writes hit
	// makes performed in order right after it returns:
	//
	//	for i := start; ; {
	//		p, ok := Read(regs[i])
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
	// accessors, and Write and WriteValue; a Read, Poll or Scan inside it
	// panics under Run, which calls hit on its own goroutine between two
	// grants. An empty list or a start outside it panics too.
	Poll(start int, regs []Reg, hit func(i int, p types.Payload) bool)
	// Scan reads regs[0], ..., regs[len(regs)-1] once each, in order, and
	// hands every read, hit or miss, to visit. It is the loop
	//
	//	for i := range regs {
	//		p, ok := Read(regs[i])
	//		visit(i, p, ok) // then visit's writes, each a Write
	//	}
	//
	// and visit is bound by the rules of Poll's hit: under Run it is called
	// on Run's goroutine, a decision made in it is visible once it returns,
	// its writes are the process's next operations, and a Read, Poll or
	// Scan inside it panics. The process resumes once, after the last read
	// and the writes that follow it. An empty list returns at once, without
	// an operation.
	Scan(regs []Reg, visit func(i int, p types.Payload, ok bool))
	// Decide records this process's irrevocable decision; it costs no
	// memory operation. A correct process must decide at most once.
	Decide(v types.Value)
	// HasDecided reports whether Decide has been called.
	HasDecided() bool
	// Rand returns this process's private deterministic random stream.
	Rand() *prng.Source
}

// Reg names one register: Owner's register Index of the family Name when
// Name ends in '/', and Owner's one register Name otherwise, where Index
// must be 0. An operation on a Reg whose Index is negative, or non-zero on
// a Name that does not end in '/', panics out of Run. Traces print a
// register as Name followed by the decimal Index for a '/' Name, and as
// Name otherwise. An operation whose Name is one of the last two its
// process's operations looked up reaches the register by position in
// Name's family; any other Name is looked up when the operation is granted.
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
