package protocol

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// packed_test.go pins the packed response-object layout (binary.go):
// that it is lossless down to the bit, that the decoder refuses every
// malformed spelling, and that the three answer shapes the benchmark
// pays for stay under fixed byte budgets.

// sameBits is reflect.DeepEqual for responses whose coordinates may be
// NaN: candidates and the exact answer must match field for field and
// every coordinate bit for bit.
func sameBits(t *testing.T, got, want Response) {
	t.Helper()
	objs := func(r Response) []Object {
		out := append([]Object(nil), r.Candidates...)
		if r.Exact != nil {
			out = append(out, *r.Exact)
		}
		return out
	}
	g, w := objs(got), objs(want)
	if len(g) != len(w) || (got.Exact == nil) != (want.Exact == nil) {
		t.Fatalf("decoded %d objects (exact %v), want %d (exact %v)",
			len(g), got.Exact != nil, len(w), want.Exact != nil)
	}
	for i := range w {
		if !sameObject(&g[i], &w[i]) {
			t.Fatalf("object %d changed on the wire:\n got %+v\nwant %+v", i, g[i], w[i])
		}
	}
	if !reflect.DeepEqual(got.Cost, want.Cost) {
		t.Fatalf("cost changed on the wire: got %+v, want %+v", got.Cost, want.Cost)
	}
}

// TestPackedObjectsRoundTripProperty is the losslessness property:
// random candidate lists drawn from the hostile corners of every field
// decode to exactly what was encoded.
func TestPackedObjectsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	coords := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8_0000_0000_BEEF), // NaN with a payload
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		156.25, 39843.75, 1, -2.5,
	}
	coord := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return coords[rng.Intn(len(coords))]
		case 1:
			return float64(rng.Intn(257)) * 156.25 // a pyramid-cell corner
		default:
			return math.Float64frombits(rng.Uint64())
		}
	}
	ids := []int64{0, 1, -1, 63, 64, -64, -65, 16383, 1 << 55, -(1 << 55), 1<<55 - 1,
		math.MaxInt64, math.MinInt64}
	id := func() int64 {
		if rng.Intn(2) == 0 {
			return ids[rng.Intn(len(ids))]
		}
		return int64(rng.Uint64())
	}
	names := []string{"", "target", "poi", "a somewhat longer name than the others"}
	for iter := 0; iter < 2000; iter++ {
		want := Response{OK: true}
		nameMode := rng.Intn(4) // empty, repeated, alternating, random
		for i, n := 0, rng.Intn(12); i < n; i++ {
			o := Object{ID: id(), Rect: Rect{MinX: coord(), MinY: coord()}}
			if rng.Intn(2) == 0 {
				o.Rect.MaxX, o.Rect.MaxY = o.Rect.MinX, o.Rect.MinY
			} else {
				o.Rect.MaxX, o.Rect.MaxY = coord(), coord()
			}
			switch nameMode {
			case 1:
				o.Name = "target"
			case 2:
				o.Name = names[1+i%2]
			case 3:
				o.Name = names[rng.Intn(len(names))]
			}
			want.Candidates = append(want.Candidates, o)
		}
		switch rng.Intn(3) {
		case 0:
			if n := len(want.Candidates); n > 0 {
				ex := want.Candidates[rng.Intn(n)] // a member: travels as an index
				want.Exact = &ex
			}
		case 1:
			want.Exact = &Object{ID: id(), Rect: Rect{MinX: coord(), MinY: coord(), MaxX: coord(), MaxY: coord()},
				Name: names[rng.Intn(len(names))]}
		}
		if rng.Intn(2) == 0 {
			want.Cost = &Cost{CloakNS: rng.Int63n(1e6), QueryNS: -rng.Int63(), TransmitNS: math.MaxInt64,
				Candidates: len(want.Candidates)}
		}
		got, err := decodeResponse(appendResponse(nil, &want))
		if err != nil {
			t.Fatalf("iteration %d: %v\nresponse %+v", iter, err, want)
		}
		sameBits(t, got, want)
	}
}

// TestPackedNameRunsShareOneString pins the decode-side half of the
// name-run rule: a run of equal names is one string, not one per
// candidate.
func TestPackedNameRunsShareOneString(t *testing.T) {
	resp := nnPublicResponse(36)
	b := appendResponse(nil, &resp)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeResponse(b); err != nil {
			t.Fatal(err)
		}
	})
	// The candidate slice, the one shared name, the exact object, the cost.
	if allocs > 4 {
		t.Fatalf("decoding 36 same-named candidates allocates %.0f times, want <= 4", allocs)
	}
}

// nnPublicResponse is an nn_public answer as the benchmark's world
// produces it: n point targets named "target" at arbitrary coordinates
// with ids below 16384, the refined answer among them.
func nnPublicResponse(n int) Response {
	rng := rand.New(rand.NewSource(36))
	resp := Response{OK: true, Cost: &Cost{CloakNS: 2100, QueryNS: 48000, TransmitNS: 152000, Candidates: n}}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*40000, rng.Float64()*40000
		resp.Candidates = append(resp.Candidates, Object{
			ID: int64(rng.Intn(16384)), Rect: Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, Name: "target"})
	}
	ex := resp.Candidates[n/2]
	resp.Exact = &ex
	return resp
}

// nnBuddyResponse is an nn_buddy answer: n cloaks whose corners are
// pyramid-cell corners of the default 40 km / 9-level universe
// (multiples of 156.25) under random 63-bit pseudonyms.
func nnBuddyResponse(n int) Response {
	rng := rand.New(rand.NewSource(172))
	resp := Response{OK: true, Cost: &Cost{CloakNS: 2100, QueryNS: 310000, TransmitNS: 610000, Candidates: n}}
	for i := 0; i < n; i++ {
		x, y := float64(rng.Intn(250)), float64(rng.Intn(250))
		w, h := float64(1+rng.Intn(6)), float64(1+rng.Intn(6))
		resp.Candidates = append(resp.Candidates, Object{ID: rng.Int63(),
			Rect: Rect{MinX: x * 156.25, MinY: y * 156.25, MaxX: (x + w) * 156.25, MaxY: (y + h) * 156.25}})
	}
	ex := resp.Candidates[n/2]
	resp.Exact = &ex
	return resp
}

// frameLen is what one response costs on the downlink: the whole
// frame, length prefix and request id included.
func frameLen(t *testing.T, resp Response) int {
	t.Helper()
	bp, err := encodeResponseFrame(1, &resp)
	if err != nil {
		t.Fatal(err)
	}
	defer putFrameBuf(bp)
	return len(*bp)
}

// TestPackedSizeGate keeps the codec's density from regressing without
// the repository benchmark: the budgets are the three answer shapes of
// its workloads at their measured list lengths (36 candidates per
// nn_public, 172 per nn_buddy, k = 5). The fixed-width layout spent
// 1903, 7665 and 303 bytes on the same answers.
func TestPackedSizeGate(t *testing.T) {
	knn := nnPublicResponse(5)
	knn.Exact = nil
	for _, tc := range []struct {
		name   string
		resp   Response
		budget int
	}{
		{"nn_public, 36 points", nnPublicResponse(36), 800},
		{"nn_buddy, 172 cloaks", nnBuddyResponse(172), 4900},
		{"knn_public, 5 points", knn, 130},
	} {
		got := frameLen(t, tc.resp)
		t.Logf("%s: %d B/frame, %.1f B/candidate", tc.name, got, float64(got)/float64(len(tc.resp.Candidates)))
		if got > tc.budget {
			t.Errorf("%s encodes in %d bytes, budget %d", tc.name, got, tc.budget)
		}
	}
}

// TestPackedDecoderRejects walks the malformed spellings of the packed
// layout; each must fail cleanly rather than decode to something else.
func TestPackedDecoderRejects(t *testing.T) {
	// head starts an OK response whose mask names fields; the caller
	// appends their bytes.
	head := func(mask uint32) []byte { return appendU32([]byte{respFlagOK}, mask) }
	point := []byte{objPoint, 0x00, 0x02, 0x00} // id 1 at (0,0), empty name
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"name back-reference on the first object",
			append(append(head(respFCandidates), 1), objPoint|objSameName, 0x00, 0x02)},
		{"unknown object header bit",
			append(append(head(respFCandidates), 1), 0x80, 0x00, 0x02, 0x00)},
		{"float width above 8",
			append(append(head(respFCandidates), 1), objPoint, 0x90, 0x02, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x00)},
		{"float truncated mid-value",
			append(append(head(respFCandidates), 1), objPoint, 0x80, 0x02, 1, 2, 3)},
		{"id varint longer than 64 bits",
			append(append(head(respFCandidates), 1), objPoint, 0x00,
				0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00)},
		{"id varint with a padded spelling",
			append(append(head(respFCandidates), 1), objPoint, 0x00, 0x82, 0x00, 0x00)},
		{"name longer than the frame",
			append(append(head(respFCandidates), 1), objPoint, 0x00, 0x02, 0x05, 'a')},
		{"candidate count bomb",
			append(head(respFCandidates), 0xFF, 0xFF, 0xFF, 0xFF, 0x07)},
		{"candidate count just past the bytes that follow",
			append(append(head(respFCandidates), 2), point...)},
		{"exact index past the candidate list",
			append(append(append(head(respFCandidates|respFExact), 1), point...), 2)},
		{"exact index without a candidate list",
			append(head(respFExact), 1)},
		{"cost varint truncated",
			append(head(respFCost), 0x02, 0x02, 0x80)},
	} {
		if resp, err := decodeResponse(tc.frame); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, resp)
		}
	}
	// The same building blocks, well-formed, do decode: the rejections
	// above are not an accident of the scaffolding.
	good := append(append(append(head(respFCandidates|respFExact), 1), point...), 1)
	resp, err := decodeResponse(good)
	if err != nil || len(resp.Candidates) != 1 || resp.Exact == nil || resp.Exact.ID != 1 {
		t.Fatalf("well-formed packed frame: %+v, %v", resp, err)
	}
	// A maximal uvarint is still a value, not an error.
	r := wireReader{b: binary.AppendUvarint(nil, math.MaxUint64)}
	if v := r.uvarint(); r.bad || v != math.MaxUint64 {
		t.Fatalf("uvarint(MaxUint64) = %d, bad=%v", v, r.bad)
	}
}
