// Package fixture exercises the lockdiscipline analyzer against the mutex
// patterns of the packages that use real mutexes.
package fixture

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
	ch   chan int
	wg   sync.WaitGroup
}

// straightLine is the canonical short critical section.
func (s *store) straightLine(k string, v int) {
	s.mu.Lock()
	s.vals[k] = v
	s.mu.Unlock()
}

// deferred releases on every path via defer, including early returns.
func (s *store) deferred(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		return 0
	}
	return s.vals[k]
}

// readLocked pairs RLock with RUnlock.
func (s *store) readLocked(k string) int {
	s.rw.RLock()
	v := s.vals[k]
	s.rw.RUnlock()
	return v
}

// leakyReturn returns while the mutex is held.
func (s *store) leakyReturn(k string) int {
	s.mu.Lock()
	if v, ok := s.vals[k]; ok {
		return v // want lockdiscipline.return
	}
	s.mu.Unlock()
	return 0
}

// leakyEnd falls off the end of the function with the mutex held.
func (s *store) leakyEnd(k string, v int) {
	s.mu.Lock() // want lockdiscipline.return
	s.vals[k] = v
}

// doubleLock locks a mutex it already holds: instant deadlock.
func (s *store) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want lockdiscipline.double
	s.mu.Unlock()
}

// sendUnderLock blocks on a channel send while holding the mutex.
func (s *store) sendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want lockdiscipline.blocking
	s.mu.Unlock()
}

// recvUnderLock blocks on a receive while holding the mutex.
func (s *store) recvUnderLock() int {
	s.mu.Lock()
	v := <-s.ch // want lockdiscipline.blocking
	s.mu.Unlock()
	return v
}

// selectUnderLock blocks on a default-less select while holding the mutex.
func (s *store) selectUnderLock(v int) {
	s.mu.Lock()
	select { // want lockdiscipline.blocking
	case s.ch <- v:
	case <-s.ch:
	}
	s.mu.Unlock()
}

// waitUnderLock blocks on a WaitGroup while holding the mutex.
func (s *store) waitUnderLock() {
	s.mu.Lock()
	s.wg.Wait() // want lockdiscipline.blocking
	s.mu.Unlock()
}

// nonBlockingSelect never blocks: a select with default under a lock is
// the live node's notify pattern and stays legal.
func (s *store) nonBlockingSelect(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// goroutineBody is analyzed as its own function: the literal's send does
// not count against the enclosing lock, and its own lock use is checked.
func (s *store) goroutineBody(v int) {
	s.mu.Lock()
	go func() {
		s.ch <- v
	}()
	s.mu.Unlock()
}

// branchBalanced unlocks on both arms before returning.
func (s *store) branchBalanced(k string) int {
	s.mu.Lock()
	if v, ok := s.vals[k]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return -1
}
