package mp

import (
	"fmt"
	"reflect"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/types"
	"kset/internal/wire"
)

// callLog is an mpnet.API that writes down every call a protocol makes that
// another process or the checker could see, in order. OnAccept callbacks are
// appended to the same log by the drivers below.
type callLog struct {
	fakeAPI
	calls []string
}

func newCallLog(id types.ProcessID, n, t, k int) *callLog {
	return &callLog{fakeAPI: *newFakeAPI(id, n, t, k, types.Value(int(id)%3+1))}
}

func (c *callLog) Send(to types.ProcessID, p types.Payload) {
	c.calls = append(c.calls, fmt.Sprintf("send %d %v", to, p))
}

func (c *callLog) Broadcast(p types.Payload) {
	c.calls = append(c.calls, fmt.Sprintf("broadcast %v", p))
}

func (c *callLog) Decide(v types.Value) {
	c.calls = append(c.calls, fmt.Sprintf("decide %d", v))
	c.fakeAPI.Decide(v)
}

type delivery struct {
	from types.ProcessID
	p    types.Payload
}

// hostileIDs are the ids no runtime hands out for n processes: below the
// range, just above it, and at the wire decoder's own limit.
func hostileIDs(n int) []types.ProcessID {
	return []types.ProcessID{-1, types.ProcessID(n), types.ProcessID(n + 7), wire.MaxProcs - 1}
}

// hostileStream draws a message stream that reaches every branch of the echo
// bookkeeping: inits and echoes concentrated on a few origins, one of them
// outside 0..n-1, and on a few values, so that candidates collect duplicate
// echoes, cross the acceptance threshold, and compete (several values for one
// origin, as a Byzantine sender produces); a share of the senders is out of
// range too.
func hostileStream(rng *prng.Source, n, length int) []delivery {
	hostile := hostileIDs(n)
	origins := []types.ProcessID{
		types.ProcessID(rng.Intn(n)), types.ProcessID(rng.Intn(n)), 0,
		hostile[rng.Intn(len(hostile))],
	}
	anyID := func() types.ProcessID {
		if rng.Intn(20) == 0 {
			return hostile[rng.Intn(len(hostile))]
		}
		return types.ProcessID(rng.Intn(n))
	}
	stream := make([]delivery, length)
	for i := range stream {
		d := delivery{from: anyID(), p: types.Payload{Value: types.Value(rng.Intn(3) + 1)}}
		switch r := rng.Intn(20); {
		case r == 0:
			d.p.Kind = types.KindInput
		case r < 4:
			d.p.Kind, d.p.Origin = types.KindInit, anyID()
		default:
			d.p.Kind = types.KindEcho
			if rng.Intn(8) == 0 {
				d.p.Origin = anyID()
			} else {
				d.p.Origin = origins[rng.Intn(len(origins))]
			}
		}
		stream[i] = d
	}
	return stream
}

// denseVsReference feeds one stream to the production state and to the
// map-based reference of each protocol, as process id of n with bounds t, k
// and echo parameter l, and returns the two call logs per protocol.
func denseVsReference(id types.ProcessID, n, t, k, l int, stream []delivery) map[string][2][]string {
	out := make(map[string][2][]string)

	// The l-echo broadcast on its own, acceptances included.
	echoLog, refEchoLog := newCallLog(id, n, t, k), newCallLog(id, n, t, k)
	echo := NewEchoBroadcast(l, func(o types.ProcessID, v types.Value) {
		echoLog.calls = append(echoLog.calls, fmt.Sprintf("accept %d %d", o, v))
	})
	refEcho := newRefEchoBroadcast(l, func(o types.ProcessID, v types.Value) {
		refEchoLog.calls = append(refEchoLog.calls, fmt.Sprintf("accept %d %d", o, v))
	})
	echo.Broadcast(echoLog, echoLog.input)
	refEcho.Broadcast(refEchoLog, refEchoLog.input)
	for _, d := range stream {
		echo.Handle(echoLog, d.from, d.p)
		refEcho.Handle(refEchoLog, d.from, d.p)
	}
	out["echo"] = [2][]string{echoLog.calls, refEchoLog.calls}

	protocols := []struct {
		name      string
		prod, ref mpnet.Protocol
	}{
		{"protocol-c", NewProtocolC(l), newRefProtocolC(l)},
		{"protocol-d", NewProtocolD(), &refProtocolD{}},
		{"protocol-d-broadcasters", NewProtocolDBroadcasters(t), &refProtocolD{OwnDeciders: t + 1}},
	}
	for _, p := range protocols {
		prodLog, refLog := newCallLog(id, n, t, k), newCallLog(id, n, t, k)
		p.prod.Start(prodLog)
		p.ref.Start(refLog)
		for _, d := range stream {
			p.prod.Deliver(prodLog, d.from, d.p)
			p.ref.Deliver(refLog, d.from, d.p)
		}
		out[p.name] = [2][]string{prodLog.calls, refLog.calls}
	}
	return out
}

// TestDenseStateMatchesReference is the differential oracle for the dense
// protocol state: the l-echo broadcast, Protocol C and both Protocol D
// variants against their map-based bodies (reference_test.go) must make the
// same Broadcast, Decide and OnAccept calls in the same order on hostile
// streams — Byzantine multi-value echoes, duplicate echoes, origins and
// senders outside 0..n-1 — at sizes on both sides of the bitset's word
// boundary.
func TestDenseStateMatchesReference(t *testing.T) {
	seeds := uint64(50)
	if testing.Short() {
		seeds = 8
	}
	accepts, hostileAccepts, decides := 0, 0, 0
	for _, n := range []int{1, 4, 9, 24, 65, 130} {
		for l := 1; l <= 3; l++ {
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := prng.New(prng.MixSeed(seed, uint64(n), uint64(l)))
				tt := rng.Intn((n + 2) / 3)
				k := rng.Intn(n) + 1
				id := types.ProcessID(rng.Intn(n))
				stream := hostileStream(rng, n, 60*n+40)
				for name, logs := range denseVsReference(id, n, tt, k, l, stream) {
					if !reflect.DeepEqual(logs[0], logs[1]) {
						t.Fatalf("%s n=%d t=%d k=%d l=%d id=%d seed=%d: calls differ from the reference\n got %v\nwant %v",
							name, n, tt, k, l, id, seed, logs[0], logs[1])
					}
					for _, call := range logs[0] {
						var o, v int
						if _, err := fmt.Sscanf(call, "accept %d %d", &o, &v); err == nil && name == "echo" {
							accepts++
							if o < 0 || o >= n {
								hostileAccepts++
							}
						}
						if _, err := fmt.Sscanf(call, "decide %d", &v); err == nil {
							decides++
						}
					}
				}
			}
		}
	}
	// The streams must get somewhere, or equal logs say nothing.
	t.Logf("%d acceptances (%d hostile), %d decisions", accepts, hostileAccepts, decides)
	if accepts == 0 || hostileAccepts == 0 || decides == 0 {
		t.Fatalf("streams too tame: %d acceptances (%d of an out-of-range origin), %d decisions",
			accepts, hostileAccepts, decides)
	}
}

// TestFirstPerSenderMatchesReference compares the recorded-values table with
// its map-based body after every add, senders outside 0..n-1 included.
func TestFirstPerSenderMatchesReference(t *testing.T) {
	for _, n := range []int{1, 4, 9, 24, 65, 130} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := prng.New(prng.MixSeed(seed, uint64(n)))
			hostile := hostileIDs(n)
			var f firstPerSender
			f.reset(n)
			ref := newRefFirstPerSender(n)
			domain := rng.Intn(3) + 1
			for i := 0; i < 3*n+8; i++ {
				sender := types.ProcessID(rng.Intn(n))
				if rng.Intn(6) == 0 {
					sender = hostile[rng.Intn(len(hostile))]
				}
				v := types.Value(rng.Intn(domain)) - 1
				if got, want := f.add(sender, v), ref.add(sender, v); got != want {
					t.Fatalf("n=%d seed=%d: add(%d, %d) = %v, reference %v", n, seed, sender, v, got, want)
				}
				gotEq, gotOK := f.allEqual()
				wantEq, wantOK := ref.allEqual()
				gotMin, _ := f.min()
				wantMin, _ := ref.min()
				if f.count() != ref.count() || f.countValue(v) != ref.countValue(v) ||
					gotEq != wantEq || gotOK != wantOK || gotMin != wantMin {
					t.Fatalf("n=%d seed=%d after add(%d, %d): count %d/%d countValue %d/%d allEqual %d,%v/%d,%v min %d/%d",
						n, seed, sender, v, f.count(), ref.count(), f.countValue(v), ref.countValue(v),
						gotEq, gotOK, wantEq, wantOK, gotMin, wantMin)
				}
			}
		}
	}
	var empty firstPerSender
	if _, ok := empty.min(); ok {
		t.Error("min of nothing reported a value")
	}
	if _, ok := empty.allEqual(); ok {
		t.Error("allEqual of nothing reported a value")
	}
}

// FuzzProtocolDeliver feeds Protocol C, Protocol D and the l-echo broadcast
// message streams decoded from arbitrary bytes — any kind, any origin, any
// sender — and requires that nothing panics and that every call matches the
// map-based reference.
func FuzzProtocolDeliver(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 2, 1, 1, 0, 2, 1, 1, 2, 2, 1, 1, 3})
	f.Add([]byte{65, 20, 1, 64, 2, 1, 250, 64, 2, 1, 251, 252, 1, 2, 64, 253})
	f.Add([]byte{130, 43, 2, 129, 2, 0, 129, 128, 2, 0, 129, 129, 2, 0, 254, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0])%130 + 1
		tt := int(data[1]) % n
		l := int(data[2])%3 + 1
		id := types.ProcessID(int(data[3]) % n)
		hostile := append(hostileIDs(n), -1<<40, 1<<40)
		decodeID := func(b byte) types.ProcessID {
			if b < 200 {
				return types.ProcessID(int(b) % n)
			}
			return hostile[int(b)%len(hostile)]
		}
		kinds := []types.MsgKind{types.KindInput, types.KindInit, types.KindEcho, types.KindEcho}
		var stream []delivery
		for rest := data[4:]; len(rest) >= 4; rest = rest[4:] {
			stream = append(stream, delivery{from: decodeID(rest[3]), p: types.Payload{
				Kind:   kinds[int(rest[0])%len(kinds)],
				Value:  types.Value(int8(rest[1]) % 4),
				Origin: decodeID(rest[2]),
			}})
		}
		for name, logs := range denseVsReference(id, n, tt, tt+1, l, stream) {
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("%s n=%d t=%d l=%d id=%d: calls differ from the reference\n got %v\nwant %v",
					name, n, tt, l, id, logs[0], logs[1])
			}
		}
	})
}

// TestReuseRestartsAsFresh holds every protocol to the restart contract: one
// instance taken through a sequence of runs — n growing and shrinking across
// the bitsets' word boundary, t, k and the process id changing, each run cut
// off after a random share of a hostile stream — makes in every run the calls
// a new instance makes on the same run.
func TestReuseRestartsAsFresh(t *testing.T) {
	protocols := []struct {
		name string
		mk   func() mpnet.Protocol
	}{
		{"floodmin", func() mpnet.Protocol { return NewFloodMin() }},
		{"protocol-a", func() mpnet.Protocol { return NewProtocolA() }},
		{"protocol-b", func() mpnet.Protocol { return NewProtocolB() }},
		{"protocol-c1", func() mpnet.Protocol { return NewProtocolC(1) }},
		{"protocol-c2", func() mpnet.Protocol { return NewProtocolC(2) }},
		{"protocol-d", func() mpnet.Protocol { return NewProtocolD() }},
		{"protocol-d-broadcasters", func() mpnet.Protocol { return NewProtocolDBroadcasters(2) }},
		{"trivial", func() mpnet.Protocol { return NewTrivial() }},
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	decides := 0
	for _, p := range protocols {
		rng := prng.New(prng.MixSeed(7, uint64(len(p.name))))
		reused := p.mk()
		for round := 0; round < rounds; round++ {
			for _, n := range []int{4, 9, 65, 3, 24, 130, 1, 9, 70, 5} {
				tt := rng.Intn((n + 2) / 3)
				k := rng.Intn(n) + 1
				id := types.ProcessID(rng.Intn(n))
				stream := hostileStream(rng, n, 40*n+40)
				stream = stream[:rng.Intn(len(stream)+1)]
				for i := range stream {
					if i%3 == 0 {
						stream[i].p.Kind = types.KindInput
					}
				}
				logs := [2]*callLog{newCallLog(id, n, tt, k), newCallLog(id, n, tt, k)}
				for i, inst := range []mpnet.Protocol{reused, p.mk()} {
					inst.Start(logs[i])
					for _, d := range stream {
						inst.Deliver(logs[i], d.from, d.p)
					}
				}
				if !reflect.DeepEqual(logs[0].calls, logs[1].calls) {
					t.Fatalf("%s round %d n=%d t=%d k=%d id=%d: a restarted instance's calls differ from a new one's\n got %v\nwant %v",
						p.name, round, n, tt, k, id, logs[0].calls, logs[1].calls)
				}
				if logs[0].decided {
					decides++
				}
			}
		}
	}
	if decides == 0 {
		t.Fatal("no run decided: equal logs say nothing")
	}
}
