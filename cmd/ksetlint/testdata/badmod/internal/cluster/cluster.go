// Package cluster is a ksetlint fixture: a live transport with IO bugs.
//
//ksetlint:package-allow determinism a live transport on real sockets; its dropped errors, leaked goroutine and IO under the mutex are reported
package cluster

import (
	"net"
	"sync"
	"time"
)

// Transport is a mutex-guarded connection.
type Transport struct {
	mu   sync.Mutex
	conn net.Conn
}

// Arm drops the deadline setter's error (the PR 5 bug shape).
func (t *Transport) Arm(d time.Duration) {
	t.conn.SetWriteDeadline(time.Now().Add(d))
}

// Spawn launches a goroutine that nothing can stop.
func (t *Transport) Spawn() {
	go t.pump()
}

func (t *Transport) pump() {
	for {
		time.Sleep(time.Millisecond)
	}
}

// Flush writes to the network while holding the lock (and drops the error).
func (t *Transport) Flush(buf []byte) {
	t.mu.Lock()
	t.conn.Write(buf)
	t.mu.Unlock()
}
