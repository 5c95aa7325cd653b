package smmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kset/internal/types"
)

// opScript drives a process through a random sequence of register
// operations, exercising the memory with access patterns no real protocol
// has.
type opScript struct {
	writes []scriptOp
}

type scriptOp struct {
	write bool
	owner types.ProcessID
	reg   string
	value types.Value
}

func (s *opScript) Run(api API) {
	for _, op := range s.writes {
		if op.write {
			api.WriteValue(op.reg, 0, op.value)
		} else {
			_, _ = api.Read(Reg{Owner: op.owner, Name: op.reg})
		}
	}
	api.Decide(api.Input())
}

// memShape is a quick generator for randomized memory workloads.
type memShape struct {
	N       int
	OpsPer  int
	Regs    int
	Seed    uint64
	Scripts [][]scriptOp
}

// Generate implements quick.Generator.
func (memShape) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(6) + 2
	regs := r.Intn(3) + 1
	opsPer := r.Intn(12) + 1
	scripts := make([][]scriptOp, n)
	for p := 0; p < n; p++ {
		ops := make([]scriptOp, opsPer)
		for i := range ops {
			ops[i] = scriptOp{
				write: r.Intn(2) == 0,
				owner: types.ProcessID(r.Intn(n)),
				reg:   fmt.Sprintf("r%d", r.Intn(regs)),
				value: types.Value(r.Intn(100)),
			}
		}
		scripts[p] = ops
	}
	return reflect.ValueOf(memShape{N: n, OpsPer: opsPer, Regs: regs, Seed: r.Uint64(), Scripts: scripts})
}

// TestMemoryIsSequentiallyConsistentWithGrantOrder replays the granted
// operation order against a model map and verifies every read returns
// exactly the model's value: the registers are atomic with the linearization
// the scheduler produced, and single-writer holds (the model keys include
// the owner, and the runtime routes every write to the writer's own
// register).
func TestMemoryIsSequentiallyConsistentWithGrantOrder(t *testing.T) {
	prop := func(s memShape) bool {
		type key struct {
			owner types.ProcessID
			reg   string
		}
		model := map[key]types.Value{}
		written := map[key]bool{}
		consistent := true

		_, err := Run(Config{
			N: s.N, T: 0, K: s.N,
			Inputs: make([]types.Value, s.N),
			NewProtocol: func(id types.ProcessID) Protocol {
				return &opScript{writes: s.Scripts[id]}
			},
			Seed: s.Seed,
			Trace: func(ev TraceEvent) {
				k := key{ev.Owner, ev.Register}
				switch ev.Type {
				case EvWrite:
					if ev.Owner != ev.Proc {
						consistent = false // single-writer broken
					}
					model[k] = ev.Payload.Value
					written[k] = true
				case EvRead:
					if ev.Present != written[k] {
						consistent = false
					}
					if ev.Present && ev.Payload.Value != model[k] {
						consistent = false
					}
				}
			},
		})
		return err == nil && consistent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
