package exhaustive

import (
	"errors"
	"strings"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// earlyDecider waits for one message fewer than n-t and decides the last.
type earlyDecider struct{ got int }

func (f *earlyDecider) Start(api mpnet.API) {
	f.got = 0
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (f *earlyDecider) Deliver(api mpnet.API, _ types.ProcessID, p types.Payload) {
	if f.got++; f.got == api.N()-api.T()-1 {
		api.Decide(p.Value)
	}
}

// relayer echoes every message it receives and decides its input.
type relayer struct{ got int }

func (f *relayer) Start(api mpnet.API) {
	f.got = 0
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (f *relayer) Deliver(api mpnet.API, _ types.ProcessID, p types.Payload) {
	api.Broadcast(p)
	if f.got++; f.got == api.N()-api.T() {
		api.Decide(api.Input())
	}
}

// lastArrival decides the value of its (n-t)-th message, which depends on
// the order the messages arrive in.
type lastArrival struct{ got int }

func (f *lastArrival) Start(api mpnet.API) {
	f.got = 0
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (f *lastArrival) Deliver(api mpnet.API, _ types.ProcessID, p types.Payload) {
	if f.got++; f.got == api.N()-api.T() {
		api.Decide(p.Value)
	}
}

// TestDriverRejectsBrokenShape: the driver answers a protocol that is not
// one-shot, or code that breaks the shape, with an error and no verdict.
func TestDriverRejectsBrokenShape(t *testing.T) {
	for _, proto := range []theory.ProtocolID{theory.ProtoC, theory.ProtoD, theory.ProtoTrivial, 99} {
		verdict, err := Verify(proto, types.SV2, 4, 2, 1, 0)
		if err == nil || !strings.Contains(err.Error(), proto.String()) {
			t.Errorf("Verify(%s) = %+v, %v; want an error naming the protocol", proto, verdict, err)
		}
		if errors.Is(err, trace.ErrBadTrace) {
			t.Errorf("Verify(%s): %v claims an invalid artifact; none was read", proto, err)
		}
	}
	for _, c := range []struct {
		name string
		inst mpnet.Protocol
		want string
	}{
		{"early decision", &earlyDecider{}, "decides after 2 deliveries, not after 3"},
		{"send from Deliver", &relayer{}, "from Deliver"},
		{"order-dependent decision", &lastArrival{}, "on the reverse order"},
	} {
		v, err := newVerifier(theory.ProtoFloodMin, types.RV1, 4, 4, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		v.inst = c.inst
		verdict := Verdict{Holds: true}
		if err := v.enumInputs(0, 1, &verdict); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestVerifyRejectsBadArgs: a failure bound outside 0..n-1 or an unknown
// validity is an error, not a vacuous verdict.
func TestVerifyRejectsBadArgs(t *testing.T) {
	for _, c := range []struct {
		validity types.Validity
		tt       int
	}{{types.RV1, -1}, {types.RV1, 4}, {types.RV1, 9}, {99, 1}} {
		if verdict, err := Verify(theory.ProtoFloodMin, c.validity, 4, 2, c.tt, 0); err == nil {
			t.Errorf("Verify(validity %d, n=4, t=%d) = %+v, want an error", c.validity, c.tt, verdict)
		}
	}
}
