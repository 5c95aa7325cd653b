package theory

import (
	"testing"

	"kset/internal/types"
)

// FuzzClassify: the classifier is total and internally consistent on any
// in-range point, for every model and validity, and no cell is left open
// that one step of a carry rule decides (carryGaps).
func FuzzClassify(f *testing.F) {
	f.Add(8, 3, 2)
	f.Add(64, 2, 32)
	f.Add(5, 4, 5)
	f.Add(100, 50, 99)
	f.Add(64, 2, 22)
	f.Add(4, 2, 1)
	f.Fuzz(func(t *testing.T, n, k, tt int) {
		if n < 3 || n > 200 || k < 2 || k > n-1 || tt < 1 || tt > n {
			t.Skip()
		}
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				r := Classify(m, v, n, k, tt)
				switch r.Status {
				case Solvable:
					if r.Proto == ProtoNone || r.Lemma == "" {
						t.Fatalf("%v/%v (%d,%d,%d): solvable without witness/lemma", m, v, n, k, tt)
					}
				case Impossible:
					if r.Lemma == "" {
						t.Fatalf("%v/%v (%d,%d,%d): impossible without lemma", m, v, n, k, tt)
					}
				case Open:
				default:
					t.Fatalf("bad status %v", r.Status)
				}
			}
		}
		if gaps := carryGaps(n, k, tt); len(gaps) > 0 {
			t.Fatal(gaps[0])
		}
	})
}

// FuzzEchoThreshold: the l-echo acceptance threshold stays within the
// safety window whenever the resilience condition holds.
func FuzzEchoThreshold(f *testing.F) {
	f.Add(7, 2, 1)
	f.Add(64, 20, 1)
	f.Add(10, 3, 2)
	f.Fuzz(func(t *testing.T, n, tt, l int) {
		if n < 1 || n > 1000 || tt < 0 || tt > n || l < 1 || l > 16 {
			t.Skip()
		}
		th := EchoAcceptThreshold(n, tt, l)
		if th <= tt {
			t.Fatalf("threshold %d <= t=%d: faulty echoes alone could force acceptance", th, tt)
		}
		if EchoEllValid(n, tt, l) && th > n-tt {
			t.Fatalf("threshold %d unreachable by the %d correct processes", th, n-tt)
		}
	})
}

// FuzzZBounds: Z(n, t) is always within [t+1, n] for 0 <= t < n.
func FuzzZBounds(f *testing.F) {
	f.Add(8, 2)
	f.Add(64, 31)
	f.Fuzz(func(t *testing.T, n, tt int) {
		if n < 1 || n > 500 || tt < 0 || tt >= n {
			t.Skip()
		}
		z := Z(n, tt)
		if z < tt+1 && tt+1 <= n {
			t.Fatalf("Z(%d,%d) = %d below t+1", n, tt, z)
		}
		if z > n {
			t.Fatalf("Z(%d,%d) = %d above n", n, tt, z)
		}
	})
}
