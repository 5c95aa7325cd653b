package smmem

import (
	"fmt"

	"kset/internal/types"
)

// TraceEventType enumerates observable shared-memory run events.
type TraceEventType uint8

// Trace event types.
const (
	EvRead TraceEventType = iota + 1
	EvWrite
	EvDecide
	EvCrash
)

// String names the event type.
func (t TraceEventType) String() string {
	switch t {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvDecide:
		return "decide"
	case EvCrash:
		return "crash"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// TraceEvent is one observable operation, reported to Config.Trace.
type TraceEvent struct {
	Type     TraceEventType
	Proc     types.ProcessID // acting process
	Owner    types.ProcessID // register owner (read/write)
	Register string
	Payload  types.Payload
	Present  bool        // read: register had been written
	Value    types.Value // decision value for EvDecide
	OpIndex  int         // global operation count at the time of the event
}

// String renders one trace line.
func (e TraceEvent) String() string {
	switch e.Type {
	case EvRead:
		if !e.Present {
			return fmt.Sprintf("[%5d] %s reads  %s/%s : (unwritten)", e.OpIndex, e.Proc, e.Owner, e.Register)
		}
		return fmt.Sprintf("[%5d] %s reads  %s/%s : %s", e.OpIndex, e.Proc, e.Owner, e.Register, e.Payload)
	case EvWrite:
		return fmt.Sprintf("[%5d] %s writes %s/%s : %s", e.OpIndex, e.Proc, e.Owner, e.Register, e.Payload)
	case EvDecide:
		return fmt.Sprintf("[%5d] %s DECIDES %d", e.OpIndex, e.Proc, e.Value)
	case EvCrash:
		return fmt.Sprintf("[%5d] %s CRASHES", e.OpIndex, e.Proc)
	default:
		return fmt.Sprintf("[%5d] %s %s", e.OpIndex, e.Type, e.Proc)
	}
}
