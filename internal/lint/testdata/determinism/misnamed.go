// Package misnamed waives a rule id, another analyzer, and nothing for no
// reason, package-wide: each directive is malformed and waives nothing.
package misnamed

import "time"

//ksetlint:package-allow determinism.time only the clock is live
// want-above lint.allow

//ksetlint:package-allow maporder its maps are small
// want-above lint.allow

//ksetlint:package-allow determinism
// want-above lint.allow

// Stamp reads the wall clock.
func Stamp() time.Time { return time.Now() } // want determinism.time
