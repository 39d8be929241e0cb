package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

// FuzzDecode ensures the decoder never panics or over-reads on arbitrary
// input, and that anything it accepts re-encodes to an equivalent frame.
func FuzzDecode(f *testing.F) {
	// Seed with valid frames of each shape plus mutations.
	for _, fr := range []*Frame{
		sampleFrame(false, 0, 0),
		sampleFrame(false, 5, 16),
		sampleFrame(true, 3, 8),
		sampleFrame(true, 0, 0),
		withAnchor(sampleFrame(false, 4, 4)),
		withAnchor(sampleFrame(true, 2, 0)),
		withPrevHop(withAnchor(sampleFrame(true, 3, 2))),
	} {
		data, err := Encode(fr, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if len(data) > 4 {
			f.Add(data[:len(data)-3]) // truncated
		}
	}
	f.Add([]byte{})
	f.Add([]byte{Magic, Version, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(fr, 0)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		// Field-exact equality: anything the decoder accepted must survive a
		// re-encode bit-for-bit in every header field — scalar flags and hop
		// count, source/next-hop/anchor coordinates, the perimeter state, and
		// every destination location. Coordinates on the wire are float32, so
		// a decoded frame's points are float32-exact and finite (the decoder
		// refuses NaN and ±Inf); they are compared bit for bit.
		if back.Flags != fr.Flags || back.Hops != fr.Hops {
			t.Fatalf("flags/hops mismatch: %+v vs %+v", back, fr)
		}
		if !samePoint(back.Source, fr.Source) || !samePoint(back.NextHop, fr.NextHop) {
			t.Fatalf("source/next-hop mismatch: %+v vs %+v", back, fr)
		}
		if len(back.Dests) != len(fr.Dests) {
			t.Fatalf("dest count %d != %d", len(back.Dests), len(fr.Dests))
		}
		for i := range fr.Dests {
			if !samePoint(back.Dests[i], fr.Dests[i]) {
				t.Fatalf("dest %d: %v != %v", i, back.Dests[i], fr.Dests[i])
			}
		}
		if fr.Perimeter() && (!samePoint(back.PeriTarget, fr.PeriTarget) ||
			!samePoint(back.PeriEntry, fr.PeriEntry) || !samePoint(back.PeriFaceEntry, fr.PeriFaceEntry)) {
			t.Fatal("perimeter state mismatch")
		}
		if fr.HasPrevHop() && !samePoint(back.PeriPrev, fr.PeriPrev) {
			t.Fatalf("previous hop mismatch: %v != %v", back.PeriPrev, fr.PeriPrev)
		}
		if fr.HasAnchor() && !samePoint(back.Anchor, fr.Anchor) {
			t.Fatalf("anchor mismatch: %v != %v", back.Anchor, fr.Anchor)
		}
		if !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatal("payload mismatch")
		}
	})
}

// samePoint is bitwise point equality: unlike ==, it holds for a NaN
// coordinate and tells -0 from +0.
func samePoint(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// FuzzEncodeDecodeRoundTrip drives the encoder from arbitrary header fields —
// destination count, PERIMODE state, previous hop, anchor, payload length —
// and asserts an exact
// field-for-field roundtrip through Decode, plus the capacity arithmetic at
// the paper's 128-byte message budget.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), int64(1))
	f.Add(uint8(0), uint8(7), uint8(5), uint16(16), int64(2))
	f.Add(uint8(FlagPerimeter), uint8(255), uint8(3), uint16(8), int64(3))
	f.Add(uint8(FlagPerimeter), uint8(1), uint8(12), uint16(0), int64(4))
	f.Add(uint8(0), uint8(100), uint8(255), uint16(512), int64(5))
	f.Add(uint8(FlagAnchor), uint8(3), uint8(6), uint16(4), int64(6))
	f.Add(uint8(FlagPerimeter|FlagAnchor), uint8(9), uint8(2), uint16(0), int64(7))
	f.Add(uint8(FlagPerimeter|FlagPrevHop), uint8(4), uint8(5), uint16(3), int64(8))
	f.Add(uint8(FlagPerimeter|FlagPrevHop|FlagAnchor), uint8(11), uint8(1), uint16(0), int64(9))

	f.Fuzz(func(t *testing.T, flags, hops, ndests uint8, payloadLen uint16, seed int64) {
		r := rand.New(rand.NewSource(seed))
		// Coordinates go on the air as float32; draw float32-exact values so
		// the roundtrip comparison can demand equality.
		coord := func() float64 { return float64(float32(r.Float64()*2000 - 1000)) }
		pt := func() geom.Point { return geom.Pt(coord(), coord()) }

		fr := &Frame{Flags: flags, Hops: hops, Source: pt(), NextHop: pt()}
		for i := 0; i < int(ndests); i++ {
			fr.Dests = append(fr.Dests, pt())
		}
		if fr.Perimeter() {
			fr.PeriTarget, fr.PeriEntry, fr.PeriFaceEntry = pt(), pt(), pt()
		}
		if fr.HasPrevHop() {
			fr.PeriPrev = pt()
		}
		if fr.HasAnchor() {
			fr.Anchor = pt()
		}
		if payloadLen > 0 {
			fr.Payload = make([]byte, payloadLen%2048)
			r.Read(fr.Payload)
		}

		data, err := Encode(fr, 0)
		if err != nil {
			t.Fatalf("unbudgeted encode failed: %v", err)
		}
		if len(data) != fr.EncodedSize() {
			t.Fatalf("on-air size %d != EncodedSize %d", len(data), fr.EncodedSize())
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		if got.Flags != fr.Flags || got.Hops != fr.Hops ||
			got.Source != fr.Source || got.NextHop != fr.NextHop {
			t.Fatalf("header mismatch: %+v vs %+v", got, fr)
		}
		if len(got.Dests) != len(fr.Dests) {
			t.Fatalf("dest count %d != %d", len(got.Dests), len(fr.Dests))
		}
		for i := range fr.Dests {
			if got.Dests[i] != fr.Dests[i] {
				t.Fatalf("dest %d: %v != %v", i, got.Dests[i], fr.Dests[i])
			}
		}
		if fr.Perimeter() && (got.PeriTarget != fr.PeriTarget ||
			got.PeriEntry != fr.PeriEntry || got.PeriFaceEntry != fr.PeriFaceEntry) {
			t.Fatal("perimeter state mismatch")
		}
		if fr.HasPrevHop() && got.PeriPrev != fr.PeriPrev {
			t.Fatalf("previous hop mismatch: %v != %v", got.PeriPrev, fr.PeriPrev)
		}
		if fr.HasAnchor() && got.Anchor != fr.Anchor {
			t.Fatalf("anchor mismatch: %v != %v", got.Anchor, fr.Anchor)
		}
		if !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatal("payload mismatch")
		}

		// Capacity edge at the Table 1 budget: a budgeted encode succeeds
		// exactly when the frame fits, and — whenever the destination-free
		// frame fits at all — exactly when the destination count is within
		// Capacity's answer.
		const budget = 128
		_, err = Encode(fr, budget)
		fits := fr.EncodedSize() <= budget
		if (err == nil) != fits {
			t.Fatalf("budgeted encode err=%v but size %d vs budget %d", err, fr.EncodedSize(), budget)
		}
		// Capacity models the paper's Table 1 header (no anchor or
		// previous-hop extension), so the agreement check only applies to
		// frames without them.
		if !fr.HasAnchor() && !fr.HasPrevHop() && HeaderSize(0, fr.Perimeter())+len(fr.Payload) <= budget {
			if fits != (len(fr.Dests) <= Capacity(budget, len(fr.Payload), fr.Perimeter())) {
				t.Fatalf("Capacity disagrees with encoder: %d dests, capacity %d, fits %v",
					len(fr.Dests), Capacity(budget, len(fr.Payload), fr.Perimeter()), fits)
			}
		}
	})
}
