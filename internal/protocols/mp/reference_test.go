package mp

// The per-process protocol state as it was before it went dense: maps keyed
// by process id and by (origin, value). The add/count/min bodies, the echo
// handler and Protocol D's Deliver below are the old ones. They are the
// oracle of TestDenseStateMatchesReference — the production state must make
// the same Broadcast, Decide and OnAccept calls in the same order for any
// message stream, ids outside 0..n-1 included — and are not meant to be fast.

import (
	"kset/internal/mpnet"
	"kset/internal/theory"
	"kset/internal/types"
)

type refEchoKey struct {
	origin types.ProcessID
	value  types.Value
}

type refFirstPerSender struct {
	seen map[types.ProcessID]types.Value
}

func newRefFirstPerSender(n int) *refFirstPerSender {
	return &refFirstPerSender{seen: make(map[types.ProcessID]types.Value, n)}
}

func (f *refFirstPerSender) add(sender types.ProcessID, v types.Value) bool {
	if _, ok := f.seen[sender]; ok {
		return false
	}
	f.seen[sender] = v
	return true
}

func (f *refFirstPerSender) count() int { return len(f.seen) }

func (f *refFirstPerSender) countValue(v types.Value) int {
	c := 0
	for _, got := range f.seen {
		if got == v {
			c++
		}
	}
	return c
}

func (f *refFirstPerSender) allEqual() (types.Value, bool) {
	var v types.Value
	first := true
	for _, got := range f.seen {
		if first {
			v, first = got, false
			continue
		}
		if got != v {
			return 0, false
		}
	}
	return v, !first
}

func (f *refFirstPerSender) min() (types.Value, bool) {
	var m types.Value
	first := true
	for _, got := range f.seen {
		if first || got < m {
			m, first = got, false
		}
	}
	return m, !first
}

type refEchoBroadcast struct {
	L        int
	OnAccept func(origin types.ProcessID, v types.Value)

	echoed   map[types.ProcessID]bool
	echoers  map[refEchoKey]map[types.ProcessID]struct{}
	accepted map[refEchoKey]bool
}

func newRefEchoBroadcast(l int, onAccept func(types.ProcessID, types.Value)) *refEchoBroadcast {
	return &refEchoBroadcast{
		L:        l,
		OnAccept: onAccept,
		echoed:   make(map[types.ProcessID]bool),
		echoers:  make(map[refEchoKey]map[types.ProcessID]struct{}),
		accepted: make(map[refEchoKey]bool),
	}
}

func (e *refEchoBroadcast) Broadcast(api mpnet.API, v types.Value) {
	api.Broadcast(types.Payload{Kind: types.KindInit, Value: v, Origin: api.ID()})
}

func (e *refEchoBroadcast) Handle(api mpnet.API, from types.ProcessID, p types.Payload) {
	switch p.Kind {
	case types.KindInit:
		if e.echoed[from] {
			return
		}
		e.echoed[from] = true
		api.Broadcast(types.Payload{Kind: types.KindEcho, Value: p.Value, Origin: from})
	case types.KindEcho:
		key := refEchoKey{origin: p.Origin, value: p.Value}
		set, ok := e.echoers[key]
		if !ok {
			set = make(map[types.ProcessID]struct{})
			e.echoers[key] = set
		}
		if _, dup := set[from]; dup {
			return
		}
		set[from] = struct{}{}
		if e.accepted[key] {
			return
		}
		if len(set) >= theory.EchoAcceptThreshold(api.N(), api.T(), e.L) {
			e.accepted[key] = true
			if e.OnAccept != nil {
				e.OnAccept(p.Origin, p.Value)
			}
		}
	}
}

type refProtocolC struct {
	L       int
	Default types.Value

	echo        *refEchoBroadcast
	accepted    *refFirstPerSender
	ownAccepted bool
	pending     mpnet.API
}

func newRefProtocolC(l int) *refProtocolC {
	return &refProtocolC{L: l, Default: types.DefaultValue}
}

func (c *refProtocolC) Start(api mpnet.API) {
	c.accepted = newRefFirstPerSender(api.N())
	c.echo = newRefEchoBroadcast(c.L, func(origin types.ProcessID, v types.Value) {
		c.onAccept(c.pending, origin, v)
	})
	c.echo.Broadcast(api, api.Input())
}

func (c *refProtocolC) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	c.pending = api
	c.echo.Handle(api, from, p)
	c.pending = nil
}

func (c *refProtocolC) onAccept(api mpnet.API, origin types.ProcessID, v types.Value) {
	if !c.accepted.add(origin, v) {
		return
	}
	if origin == api.ID() {
		c.ownAccepted = true
	}
	if api.HasDecided() {
		return
	}
	n, t := api.N(), api.T()
	if c.accepted.count() < n-t || !c.ownAccepted {
		return
	}
	if c.accepted.countValue(api.Input()) >= n-2*t {
		api.Decide(api.Input())
	} else {
		api.Decide(c.Default)
	}
}

type refProtocolD struct {
	OwnDeciders int

	echoedFor map[types.ProcessID]bool
	echoers   map[refEchoKey]map[types.ProcessID]struct{}
}

func (d *refProtocolD) ownDeciders(api mpnet.API) int {
	if d.OwnDeciders > 0 {
		return d.OwnDeciders
	}
	return api.K()
}

func (d *refProtocolD) Start(api mpnet.API) {
	d.echoedFor = make(map[types.ProcessID]bool)
	d.echoers = make(map[refEchoKey]map[types.ProcessID]struct{})
	if int(api.ID()) <= api.T() {
		api.Broadcast(types.Payload{Kind: types.KindInit, Value: api.Input(), Origin: api.ID()})
	}
	if int(api.ID()) < d.ownDeciders(api) {
		api.Decide(api.Input())
	}
}

func (d *refProtocolD) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	switch p.Kind {
	case types.KindInit:
		if int(from) > api.T() {
			return
		}
		if d.echoedFor[from] {
			return
		}
		d.echoedFor[from] = true
		api.Broadcast(types.Payload{Kind: types.KindEcho, Value: p.Value, Origin: from})
	case types.KindEcho:
		if int(p.Origin) > api.T() {
			return
		}
		key := refEchoKey{origin: p.Origin, value: p.Value}
		set, ok := d.echoers[key]
		if !ok {
			set = make(map[types.ProcessID]struct{})
			d.echoers[key] = set
		}
		if _, dup := set[from]; dup {
			return
		}
		set[from] = struct{}{}
		if api.HasDecided() {
			return
		}
		if len(set) >= api.N()-api.T() {
			api.Decide(p.Value)
		}
	}
}
