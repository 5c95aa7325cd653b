package mpnet

import "kset/internal/types"

// Recorder observes the scheduling decisions of a run at the level needed to
// replay it exactly: which in-flight message the scheduler picked at every
// step, and at which local counters crash failures fired. Together with the
// configuration (protocol, inputs, seed) these decisions determine the whole
// run, because everything else in the simulator is a pure function of them.
//
// The runtime consults Config.Recorder with a single nil check per event, so
// runs with recording off pay nothing. internal/trace provides the capture
// implementation that turns the stream into a portable artifact.
type Recorder interface {
	// Pick reports that the scheduler selected the in-flight envelope at
	// position idx of pool order (Pool.Envelopes), which is what
	// Scheduler.Next returned. Every main-loop choice is reported,
	// including picks that end in a crash or are consumed by a crashed or
	// halted recipient without a delivery.
	Pick(idx int)
	// CrashAtEvent reports that p crashed immediately before processing its
	// events-th event (0 = before Start). The counter matches
	// ScriptedCrashes.AtEvent, so a recorded run replays its crashes with a
	// scripted adversary.
	CrashAtEvent(p types.ProcessID, events int)
	// CrashAtSend reports that p crashed immediately before its sends-th
	// transmission, truncating a broadcast mid-flight. The counter matches
	// ScriptedCrashes.AtSend.
	CrashAtSend(p types.ProcessID, sends int)
}
