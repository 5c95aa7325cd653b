// Package fixture exercises the prngflow analyzer. The test loads it under
// the import path kset/internal/prng, so the local Source/New are the
// blessed generator's.
package fixture

import (
	"math/rand" // want prngflow.import
	"time"
)

// Source mimics prng.Source: a deterministic generator.
type Source struct{ state uint64 }

// New mimics prng.New.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 mimics a deterministic draw.
func (s *Source) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

// MixSeed mimics prng.MixSeed: the sanctioned deterministic seed mixer.
func MixSeed(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		h = h*6364136223846793005 + v
	}
	return h
}

type config struct{ Seed uint64 }

func good(cfg config, i int) *Source {
	a := New(cfg.Seed)                     // parameter: fine
	b := New(cfg.Seed + 1)                 // arithmetic on parameters: fine
	c := New(uint64(i)*31 + 7)             // conversion of a parameter: fine
	d := New(a.Uint64())                   // reseeding from a deterministic draw: fine
	e := New(MixSeed(cfg.Seed, uint64(i))) // sanctioned mixing of parameters: fine
	_, _, _, _ = b, c, d, e
	return a
}

func bad() *Source {
	x := New(uint64(time.Now().UnixNano()))          // want prngflow.seed
	y := New(rand.Uint64())                          // want prngflow.seed
	z := New(MixSeed(uint64(time.Now().UnixNano()))) // want prngflow.seed
	_ = z
	return both(x, y)
}

func both(x, y *Source) *Source {
	if x.Uint64()&1 == 0 {
		return x
	}
	return y
}
