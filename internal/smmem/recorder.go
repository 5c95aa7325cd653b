package smmem

import "kset/internal/types"

// Recorder observes the scheduling decisions of a shared-memory run at the
// level needed to replay it exactly: which pending process each operation
// grant went to, and at which local operation counters crash failures fired.
// The grant order determines the whole run — every other choice in the
// simulator is a pure function of it and the configuration.
//
// The runtime consults Config.Recorder with a single nil check per grant and
// always calls it on the goroutine that called Run, so implementations need no
// locking and runs with recording off pay nothing. internal/trace provides the
// capture implementation that turns the stream into a portable artifact.
type Recorder interface {
	// Grant reports that the scheduler granted the next register operation
	// to p. Every grant is reported, including grants consumed by a crash.
	Grant(p types.ProcessID)
	// CrashAtOp reports that p crashed immediately before its ops-th
	// register operation. The counter matches ScriptedCrashes.AtOp, so a
	// recorded run replays its crashes with a scripted adversary.
	CrashAtOp(p types.ProcessID, ops int)
}
