// Package live declares itself live once, for every file of the package.
//
//ksetlint:package-allow determinism a live fixture: it runs on real clocks
package live

import "time"

// Tick reads the wall clock.
func Tick() time.Time { return time.Now() }
