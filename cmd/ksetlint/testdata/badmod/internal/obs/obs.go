// Package obs is a ksetlint fixture: live code with bad lock discipline.
//
//ksetlint:package-allow determinism the mailbox is live: its channel is legal, its mutex handling is not
package obs

import "sync"

// Box is a mutex-guarded mailbox.
type Box struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// Put blocks on the channel while holding the mutex.
func (b *Box) Put(v int) {
	b.mu.Lock()
	b.ch <- v
	b.mu.Unlock()
}

// Peek returns with the mutex held.
func (b *Box) Peek() int {
	b.mu.Lock()
	return b.n
}
