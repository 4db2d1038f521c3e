package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Fuzz targets for the binary wire codec. The decoder's contract is
// absolute: any byte string either decodes cleanly or returns an
// error — no panics, no over-reads, no allocation proportional to a
// hostile count field. Successful decodes must also round-trip: the
// re-encoded frame decodes to the same value, which catches presence
// bits that encode and decode disagree about.

func fuzzSeedRequests() []Request {
	return []Request{
		{Op: OpRegister, UserID: 7, X: 12.5, Y: -3.25, K: 4, AMin: 16},
		{Op: OpNearestPublic, UserID: 42, TraceID: "trace-abc"},
		{Op: OpCountUsers, Rect: &Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, Policy: "center-in"},
		{Op: OpUpdateBatch, Batch: []BatchUpdate{{UserID: 1, X: 1, Y: 2}, {UserID: 2, X: 3, Y: 4}}},
		{Op: "mystery_op", PubID: 3, Name: "n"},
	}
}

func FuzzV2DecodeRequest(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		b, err := appendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{opcodeStringOp, 0, 0, 0, 0})
	// Batch count bomb: claims 2^31 entries in an empty body.
	f.Add(append(append([]byte{opcodeUpdateBatch}, 0, 0, 1, 0), 0x80, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode and decode to itself.
		b2, err := appendRequest(nil, &req)
		if err != nil {
			// Only reachable for op strings > 255 bytes, which the
			// string escape itself cannot produce from a valid frame.
			if len(req.Op) <= 255 {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			return
		}
		req2, err := decodeRequest(b2)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		// Compare via a third encode: byte equality sidesteps NaN
		// (DeepEqual-hostile) while still proving the codec is a
		// fixed point after one canonicalizing round trip.
		b3, err := appendRequest(nil, &req2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatalf("request not stable under re-encode:\n first  %x\n second %x", b2, b3)
		}
	})
}

func FuzzV2DecodeResponse(f *testing.F) {
	seeds := []Response{
		{OK: true},
		{OK: false, Error: "boom", Code: CodeNotRegistered},
		{OK: true, Exact: &Object{ID: 5, Rect: Rect{MaxX: 1, MaxY: 1}, Name: "poi"}},
		{OK: true, Candidates: []Object{{ID: 1}, {ID: 2, Name: "x"}}},
		{OK: true, Cost: &Cost{CloakNS: 1, QueryNS: 2, Candidates: 4}},
		{OK: true, Count: 3, TraceID: "t-1"},
		{OK: false, Error: "update shed by inflight", Code: CodeOverloaded, TraceID: "t-2"},
		{OK: true, Density: [][]float64{{1, 2}, {3}}},
	}
	// Packed candidate lists: points and cloaks, trimmed and full-width
	// floats, varint and fixed-width ids, name runs, rect runs, exact as
	// an index and exact inline.
	seeds = append(seeds, nnPublicResponse(3), nnBuddyResponse(3), nnBuddyRunsResponse(12), Response{OK: true,
		Exact:      &Object{ID: -7, Rect: Rect{MinX: math.NaN(), MinY: math.Copysign(0, -1), MaxX: math.Inf(1)}, Name: "b"},
		Candidates: []Object{{ID: math.MaxInt64, Name: "a"}, {ID: math.MinInt64, Name: "b"}, {Name: "b"}},
	})
	for _, resp := range seeds {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add([]byte{})
	// Candidate count bomb.
	f.Add(append(append([]byte{respFlagOK}, 0, 0, 0, 8), 0xFF, 0xFF, 0xFF, 0xFF, 0x07))
	// Malformed packed objects: the frame ends inside the object header,
	// inside a trimmed float, and inside a maximal (ten-byte) id varint.
	oneCandidate := func(object ...byte) []byte {
		return append([]byte{respFlagOK, 0, 0, 0, 8, 1}, object...)
	}
	f.Add(oneCandidate(objPoint))
	f.Add(oneCandidate(objPoint, 0x84, 0x02, 0x40, 0x63))
	f.Add(oneCandidate(objPoint, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeResponse(data)
		if err != nil {
			return
		}
		b2 := appendResponse(nil, &resp)
		resp2, err := decodeResponse(b2)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		b3 := appendResponse(nil, &resp2)
		if !bytes.Equal(b2, b3) {
			t.Fatalf("response not stable under re-encode:\n first  %x\n second %x", b2, b3)
		}
	})
}

// FuzzV2ReadFrame feeds arbitrary streams to the frame reader: it must
// return an error or a payload no larger than MaxFrameBytes, never
// block on memory, and never panic.
func FuzzV2ReadFrame(f *testing.F) {
	bp, err := encodeRequestFrame(9, &Request{Op: OpUpdate, UserID: 1, X: 2, Y: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{}, *bp...))
	putFrameBuf(bp)
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], uint32(MaxFrameBytes+1))
	f.Add(huge[:])
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 4; i++ { // a stream may hold several frames
			_, payload, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			if len(payload) > MaxFrameBytes {
				t.Fatalf("payload of %d bytes exceeds the frame limit", len(payload))
			}
		}
	})
}
