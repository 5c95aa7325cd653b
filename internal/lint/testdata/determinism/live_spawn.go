package live

// Spawn runs f on a goroutine.
func Spawn(f func()) { go f() }
