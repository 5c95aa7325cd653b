package smmem

import "kset/internal/types"

// RunReference is Run on the runtime as it was before turn passing
// (reference_test.go), for tests outside the package.
var RunReference = runReference

// RunCountingHandoffs is Run, also reporting how many granted operations made
// the turn change goroutines: a grant to the process already running is none.
func RunCountingHandoffs(cfg Config) (rec *types.RunRecord, handoffs int, err error) {
	if err := validate(&cfg); err != nil {
		return nil, 0, err
	}
	rt := newRuntime(cfg)
	rt.run()
	if rt.err != nil {
		return nil, rt.handoffs, rt.err
	}
	return rt.record(), rt.handoffs, nil
}
