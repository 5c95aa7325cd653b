package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// seedBodies returns encoded frame bodies covering every message type, plus
// the retired top-level bodies the decoder must keep rejecting, used to seed
// both fuzz targets (mirroring internal/trace's fuzz pattern).
func seedBodies(f *testing.F) [][]byte {
	f.Helper()
	seeds := retiredBodies()
	for _, m := range sampleMsgs() {
		body, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	return seeds
}

// FuzzWireDecode asserts Decode never panics or over-reads, and that
// anything it accepts re-encodes.
func FuzzWireDecode(f *testing.F) {
	for _, s := range seedBodies(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(TypeMetrics), 0, 0, 0, 0})
	f.Add([]byte{VersionBatch, byte(TypeBatch), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{VersionBatch, byte(TypeBatch), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{VersionBatch, byte(TypeBatch), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0})
	f.Add(v2BatchBody())
	// The reused Batch starts dirty, as a steady-state receiver's does, so
	// stale state leaking across decodes would surface as a mismatch.
	reused := Batch{Ack: AckState{99, 98, 7}, Msgs: protoMsgs(2)}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Decode(body)
		// DecodeBatchInto must accept exactly the batch frames Decode
		// accepts, and map them to the identical value even into a reused
		// struct.
		intoErr := DecodeBatchInto(body, &reused)
		if b, ok := m.(Batch); ok != (intoErr == nil && err == nil) {
			t.Fatalf("Decode err=%v but DecodeBatchInto err=%v for %x", err, intoErr, body)
		} else if ok {
			if !reflect.DeepEqual(normalize(b), normalize(reused)) {
				t.Fatalf("DecodeBatchInto disagrees with Decode:\n%#v\nvs\n%#v", reused, b)
			}
		}
		if err != nil {
			return
		}
		if _, err := Encode(m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v\n%#v", err, m)
		}
	})
}

// FuzzWireRoundTrip asserts the codec is a bijection on its accepted set:
// decode -> encode yields the identical bytes (the encoding is canonical)
// and decoding again yields the identical message.
func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range seedBodies(f) {
		f.Add(s)
	}
	f.Add(v2BatchBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Decode(body)
		if err != nil {
			return
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("encoding is not canonical:\n%x\nvs\n%x", body, enc)
		}
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n%#v\nvs\n%#v", m, m2)
		}
	})
}
