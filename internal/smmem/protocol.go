// Package smmem implements the paper's asynchronous shared-memory model
// (Section 4): processes communicate through single-writer multi-reader
// atomic registers. The memory itself never fails; processes accessing it
// may crash or behave arbitrarily, but even a Byzantine process can only
// write registers it owns — the API makes violating single-writer physically
// impossible, mirroring the middleware systems the paper cites that
// "guarantee that shared objects themselves do not fail".
//
// Atomicity and determinism come from running one thing at a time. A
// process is a step machine, the shape a message-passing process has: its
// Start is its first step, and each later step handles what one of its
// calls did. Start and every then queue writes and post at most one call, a
// poll or a scan of a list of registers, with then, the step after it; a
// poll's hits and a scan's reads go to the call's handler, a step that may
// write but not call. One loop on the goroutine that called Run grants
// exactly one operation at a time, in an order chosen by a (possibly
// adversarial) policy from a seeded random stream — ask the policy who goes
// next, perform that process's posted operation on the memory, run the step
// it leads to, if any. Every step runs on the loop's own stack: no
// goroutine is started and nothing is shared between threads. Operations are therefore trivially linearizable
// and a run is a pure function of (protocol, parameters, adversary, seed).
// A step's writes are the process's next operations, granted one by one
// after it returns, before the call's next read. A poll (API.Poll) is a loop
// of reads, each granted and traced as one read, that the loop itself moves
// past a miss and hands a hit to the poll's handler; a miss that no write
// since the poll's last pass over its list could have changed is answered
// without looking the register up. A scan (API.Scan) reads a list once in
// order the same way, handing every read to its visitor. Once the call has
// had its last read and its writes, its then runs; a process with no call
// left has returned.
//
// Registers are created on first write and named by a Reg: an owner, a
// Name and an Index. A Name that ends in '/' ("bc/") is a numbered family
// whose registers are its Indexes; any other Name ("input") has no '/' and
// is one register, Index 0. Dynamic creation supports the unbounded register sequences of the
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

// Protocol is the behaviour of one shared-memory process: Start is its
// first step. Start and every then may queue writes and post one call,
// API.Poll or API.Scan, whose then is the process's step after that call;
// when one of them posts no call, the process returns once that step's
// writes are granted. A process that must keep "helping" (e.g. the
// SIMULATION wrapper) may poll for ever and is stopped by the runtime once
// every correct process has decided. A panic in a step ends the run and
// reaches the caller of smmem.Run.
type Protocol interface {
	Start(api API)
}

// API is the interface the runtime hands to shared-memory protocol code.
// All methods must be called from within a step — Start, a poll's hit, a
// scan's visitor or a call's then — not from a goroutine it starts.
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
	// Write queues the write of p into this process's register Reg{ID(),
	// name, index}, creating it if needed. Only the owner can ever write
	// it. The step's writes are the process's next operations, each
	// granted atomically, in order, after the step returns.
	Write(name string, index int, p types.Payload)
	// WriteValue is shorthand for Write with a KindInput payload.
	WriteValue(name string, index int, v types.Value)
	// Poll posts a poll: it reads regs[start], regs[start+1], ...
	// cyclically, after the step's writes, and hands every read that finds
	// a value to hit, with the register's index. When hit returns true the
	// poll goes on from regs[i] — which hit may have replaced, or moved on
	// by its Index — and when it returns false the poll is over: then runs
	// after the writes hit made. It is the loop
	//
	//	for i := start; ; {
	//		p, ok := read(regs[i])
	//		if !ok { i = (i + 1) % len(regs); continue }
	//		more := hit(i, p) // then hit's writes, each a write
	//		if !more { break }
	//	}
	//	then()
	//
	// Each read and each write is one granted operation, scheduled,
	// budgeted, crashable and traced. hit is a step: it may change process
	// state, call Decide, HasDecided and the accessors, and Write and
	// WriteValue, and a decision made in it is visible once it returns,
	// before its writes; so is one made in Start or a then. A Poll or Scan
	// inside it panics, as does a second call in one step: a process has
	// one call at a time. An empty list or a start outside it panics too.
	// A nil then ends the process.
	Poll(start int, regs []Reg, hit func(i int, p types.Payload) bool, then func())
	// Scan posts a scan: it reads regs[0], ..., regs[len(regs)-1] once
	// each, in order, after the step's writes, and hands every read, hit or
	// miss, to visit. It is the loop
	//
	//	for i := range regs {
	//		p, ok := read(regs[i])
	//		visit(i, p, ok) // then visit's writes, each a write
	//	}
	//	then()
	//
	// and visit is a step bound by the rules of Poll's hit. then runs after
	// the last read and the writes that follow it; for an empty list, right
	// after the step's writes, without a read. A nil then ends the process.
	Scan(regs []Reg, visit func(i int, p types.Payload, ok bool), then func())
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
// must be 0 and Name must not contain a '/'. An operation on a Reg whose
// Index is negative, or non-zero on a Name that does not end in '/', or
// whose Name contains a '/' but does not end in one, panics out of Run.
// Traces print a register as Name followed by the decimal Index for a '/'
// Name, and as Name otherwise, so no two registers print alike. An
// operation whose Name is one of the last two its process's operations
// looked up reaches the register by position in Name's family; any other
// Name is looked up when the operation is granted.
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
	// Run numbers the runs of the Runner this View belongs to, from 1. A
	// Runner's View is one value at one address in all of its runs, so the
	// pair (view, Run) names one run.
	Run uint64
}

// Scheduler picks which pending process performs the next register
// operation. pending is non-empty, sorted by process id and the runtime's own
// list (read it, do not modify or keep it); returning a process not in
// pending is a programming error and aborts the run. Within one run — one
// *View with one View.Run, the same from the run's first pick to its last —
// pending only shrinks: a process leaves it when it returns or crashes and
// never comes back. A policy may therefore keep what it derives from pending
// until the run changes or len(pending) drops. It tells runs apart by the
// pair (view, view.Run): a Runner hands every one of its runs the same
// *View, with Run one higher each time, and a policy that keeps the pointer
// keeps that Runner's View from being another Runner's.
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
