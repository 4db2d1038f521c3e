package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// roundTripRequest encodes req with the wire codec and decodes it back.
func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	b, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatalf("appendRequest(%+v): %v", req, err)
	}
	got, err := decodeRequest(b)
	if err != nil {
		t.Fatalf("decodeRequest(%+v): %v", req, err)
	}
	return got
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpRegister, UserID: 7, X: 12.5, Y: -3.25, K: 4, AMin: 16},
		{Op: OpUpdate, UserID: -1, X: 0.125, Y: 1e9},
		{Op: OpNearestPublic, UserID: 42, TraceID: "trace-abc"},
		{Op: OpKNearestPublic, UserID: 1, NN: 9},
		{Op: OpRangePublic, UserID: 1, Radius: 128.5},
		{Op: OpCountUsers, Rect: &Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}, Policy: "fractional"},
		{Op: OpAddPublic, PubID: 99, X: 5, Y: 6, Name: "gas station"},
		{Op: OpUpdateBatch, Batch: []BatchUpdate{
			{UserID: 1, X: 1, Y: 2},
			{UserID: 2, X: 3, Y: 4},
			{UserID: 3, X: -5, Y: -6},
		}},
		{Op: OpDensity, NN: 32},
		{Op: OpStats},
		// Unknown op travels via the opcode-0 string escape.
		{Op: "from_the_future", UserID: 3},
		// All-zero optional fields: nothing but the op on the wire.
		{Op: OpDeregister},
	}
	for _, want := range cases {
		got := roundTripRequest(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the request:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{OK: true},
		{OK: false, Error: "user 9 is not registered", Code: CodeNotRegistered},
		{OK: true, Exact: &Object{ID: 5, Rect: Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, Name: "poi"}},
		{OK: true, Candidates: []Object{
			{ID: 1, Rect: Rect{MaxX: 2, MaxY: 2}},
			{ID: 2, Rect: Rect{MinX: 3, MinY: 3, MaxX: 9, MaxY: 9}, Name: "cloaked"},
		}},
		{OK: true, Count: 41.5},
		{OK: true, Cost: &Cost{CloakNS: 1, QueryNS: 2, TransmitNS: 3, Candidates: 4}},
		{OK: true, Stats: &Stats{Users: 10, PublicObjs: 20, Queries: 30, UpdateCost: 40}},
		{OK: true, Density: [][]float64{{1, 2}, {3, 4, 5}, {}}},
		{OK: true, TraceID: "t-17", Count: 2},
	}
	for _, want := range cases {
		b := appendResponse(nil, &want)
		got, err := decodeResponse(b)
		if err != nil {
			t.Fatalf("decodeResponse(%+v): %v", want, err)
		}
		// An empty density row decodes back as empty, and the encoder
		// only emits the field when rows exist — both sides of the
		// omitempty mirror.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the response:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestBinaryOmitemptyMirrorsJSON pins the codec equivalence contract:
// a field the JSON codec would omit is likewise absent from the binary
// frame, so zero values survive both codecs identically.
func TestBinaryOmitemptyMirrorsJSON(t *testing.T) {
	req := Request{Op: OpUpdate} // everything optional at zero
	b, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	// opcode byte + 4-byte zero mask and nothing else.
	if len(b) != 5 {
		t.Fatalf("zero-valued request encoded to %d bytes, want 5 (%x)", len(b), b)
	}
	if mask := binary.BigEndian.Uint32(b[1:5]); mask != 0 {
		t.Fatalf("zero-valued request has mask %#x", mask)
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	good, err := appendRequest(nil, &Request{Op: OpUpdate, UserID: 1, X: 2, Y: 3})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := decodeRequest(append(append([]byte{}, good...), 0xFF)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for i := range good {
			if _, err := decodeRequest(good[:i]); err == nil {
				t.Fatalf("truncation at %d accepted", i)
			}
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		// opcodeUpdateBatch+1 is the reserved slot of a retired op
		// spelling.
		for _, code := range []byte{opcodeUpdateBatch + 1, opcodeEnd} {
			if _, err := decodeRequest([]byte{code, 0, 0, 0, 0}); err == nil {
				t.Fatalf("opcode %d accepted", code)
			}
		}
	})
	t.Run("unknown request mask bit", func(t *testing.T) {
		b := []byte{opcodeUpdate}
		b = appendU32(b, reqFKnown+1)
		if _, err := decodeRequest(b); err == nil {
			t.Fatal("unknown mask bit accepted")
		}
	})
	t.Run("unknown response mask bit", func(t *testing.T) {
		b := []byte{respFlagOK}
		b = appendU32(b, respFKnown+1)
		if _, err := decodeResponse(b); err == nil {
			t.Fatal("unknown mask bit accepted")
		}
	})
	t.Run("unknown response flag", func(t *testing.T) {
		b := appendU32([]byte{0x80}, 0)
		if _, err := decodeResponse(b); err == nil {
			t.Fatal("unknown flags byte accepted")
		}
	})
	t.Run("allocation bomb", func(t *testing.T) {
		// A batch count claiming 2^31 entries in a 4-byte body must be
		// rejected by the count guard, not attempted.
		b := []byte{opcodeUpdateBatch}
		b = appendU32(b, reqFBatch)
		b = appendU32(b, 1<<31)
		if _, err := decodeRequest(b); err == nil {
			t.Fatal("absurd batch count accepted")
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	req := Request{Op: OpNearestPublic, UserID: 12, TraceID: "abc"}
	bp, err := encodeRequestFrame(77, &req)
	if err != nil {
		t.Fatal(err)
	}
	defer putFrameBuf(bp)

	br := bufio.NewReader(bytes.NewReader(*bp))
	var buf []byte
	id, payload, err := readFrame(br, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 77 {
		t.Fatalf("request id = %d, want 77", id)
	}
	got, err := decodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("frame round trip changed the request:\n got %+v\nwant %+v", got, req)
	}
}

func TestReadFrameLimits(t *testing.T) {
	t.Run("oversized", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameBytes+1))
		var buf []byte
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), &buf)
		if err == nil {
			t.Fatal("oversized frame accepted")
		}
	})
	t.Run("shorter than id", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], frameIDLen-1)
		var buf []byte
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), &buf)
		if err == nil {
			t.Fatal("undersized frame accepted")
		}
	})
	t.Run("oversized encode", func(t *testing.T) {
		big := Request{Op: OpUpdateBatch, Batch: make([]BatchUpdate, MaxFrameBytes/24+1)}
		if _, err := encodeRequestFrame(1, &big); err == nil {
			t.Fatal("over-limit request frame encoded")
		}
	})
}
