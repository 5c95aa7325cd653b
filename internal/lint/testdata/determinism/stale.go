// Package stale declares itself live but uses nothing live.
package stale

//ksetlint:package-allow determinism it once ran a ticker
// want-above lint.allow

// Double is pure.
func Double(x int) int { return 2 * x }
