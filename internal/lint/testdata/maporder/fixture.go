// Package fixture exercises the maporder analyzer: effectful map ranges are
// flagged, order-insensitive folds and the collect-then-sort idiom are not.
package fixture

import (
	"slices"
	"sort"
)

type trace struct{ lines []string }

func (t *trace) emit(s string) { t.lines = append(t.lines, s) }

// appendInOrder leaks map order into a slice.
func appendInOrder(m map[string]int) []string {
	var keys []string
	for k := range m { // want maporder.range
		keys = append(keys, k)
	}
	return keys
}

// callInOrder leaks map order into a trace.
func callInOrder(m map[string]int, tr *trace) {
	for k := range m { // want maporder.range
		tr.emit(k)
	}
}

// writeThrough leaks map order into shared indexed state.
func writeThrough(m map[int]int, out []int) {
	i := 0
	for _, v := range m { // want maporder.range
		out[i] = v
		i++
	}
}

// earlyReturn leaks map order through which entry wins the return.
func earlyReturn(m map[int]int) int {
	for k, v := range m { // want maporder.range
		if v > 10 {
			return k
		}
	}
	return -1
}

// pureFolds are order-insensitive: counting, summing, max-tracking.
func pureFolds(m map[string]int) (int, int) {
	count, maxv := 0, 0
	for _, v := range m {
		count++
		if v > maxv {
			maxv = v
		}
	}
	return count, maxv
}

// collectThenSort is the blessed idiom: the loop only appends the key to a
// local slice, and the very next statement sorts it, with any of the three
// sorts the analyzer knows, in a block or a case clause.
func collectThenSort(m map[string]int, ids map[int]bool, tr *trace) []int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tr.emit(k)
	}
	var out []int
	switch {
	case len(ids) > 0:
		for id := range ids {
			out = append(out, id)
		}
		sort.Ints(out)
	default:
		for id := range ids {
			out = append(out, id)
		}
		slices.Sort(out)
	}
	return out
}

var pkgKeys []string

// notTheIdiom: a sort of another slice, a statement between the loop and
// the sort, values collected instead of keys, a body that does more than
// append, and a package-level slice that other code sees unsorted.
func notTheIdiom(m map[string]int, other []string, tr *trace) {
	var a, b, d []string
	var c []int
	for k := range m { // want maporder.range
		a = append(a, k)
	}
	sort.Strings(other)
	for k := range m { // want maporder.range
		b = append(b, k)
	}
	tr.emit("collected")
	sort.Strings(b)
	for _, v := range m { // want maporder.range
		c = append(c, v)
	}
	sort.Ints(c)
	for k := range m { // want maporder.range
		d = append(d, k)
		tr.emit(k)
	}
	sort.Strings(d)
	for k := range m { // want maporder.range
		pkgKeys = append(pkgKeys, k)
	}
	sort.Strings(pkgKeys)
}

// sliceRange is not a map: never flagged, effects or not.
func sliceRange(xs []string, tr *trace) {
	for _, x := range xs {
		tr.emit(x)
	}
}
