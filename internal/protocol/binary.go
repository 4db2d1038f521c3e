// binary.go is the wire codec: a compact, allocation-conscious
// binary encoding of Request and Response. Encoding appends to a
// caller-supplied (pooled) buffer; decoding is strictly bounds-checked
// and rejects trailing garbage, unknown field masks, and counts that
// could not possibly fit the remaining bytes, so a hostile peer can
// neither panic the decoder nor make it allocate unbounded memory
// (see FuzzV2DecodeRequest / FuzzV2DecodeResponse).
//
// Field presence follows the message types' JSON omitempty tags bit
// for bit: a zero-valued field is simply absent from the frame and
// decodes back to its zero value, so `casperctl raw`'s JSON and the
// wire carry the same messages.
package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"casper/internal/core"
	"casper/internal/privacyobs"
	"casper/internal/trace"
)

// Opcodes for the known ops. Opcode 0 escapes to an explicit op
// string so Raw requests with unknown ops still round-trip (and still
// earn the server's "unknown op" response). Opcodes are wire-stable:
// never renumber or reuse one; opcode 4, a retired op spelling, stays
// reserved.
const (
	opcodeStringOp byte = iota
	opcodeRegister
	opcodeUpdate
	opcodeUpdateBatch
	_ // reserved: retired op
	opcodeDeregister
	opcodeSetProfile
	opcodeNearestPublic
	opcodeNearestBuddy
	opcodeKNearestPublic
	opcodeRangePublic
	opcodeCountUsers
	opcodeAddPublic
	opcodeDensity
	opcodeStats
	opcodeEnd // one past the last valid opcode
)

// opByOpcode decodes an opcode; opcodeByOp is its inverse.
var opByOpcode = [opcodeEnd]string{
	opcodeRegister:       OpRegister,
	opcodeUpdate:         OpUpdate,
	opcodeUpdateBatch:    OpUpdateBatch,
	opcodeDeregister:     OpDeregister,
	opcodeSetProfile:     OpSetProfile,
	opcodeNearestPublic:  OpNearestPublic,
	opcodeNearestBuddy:   OpNearestBuddy,
	opcodeKNearestPublic: OpKNearestPublic,
	opcodeRangePublic:    OpRangePublic,
	opcodeCountUsers:     OpCountUsers,
	opcodeAddPublic:      OpAddPublic,
	opcodeDensity:        OpDensity,
	opcodeStats:          OpStats,
}

var opcodeByOp = func() map[string]byte {
	m := make(map[string]byte, opcodeEnd)
	for code, op := range opByOpcode {
		if op != "" {
			m[op] = byte(code)
		}
	}
	return m
}()

// Request field-presence bits.
const (
	reqFUID uint32 = 1 << iota
	reqFX
	reqFY
	reqFK
	reqFNN
	reqFAMin
	reqFRadius
	reqFRect
	reqFBatch
	reqFPolicy
	reqFName
	reqFPubID
	reqFTraceID

	reqFKnown = reqFTraceID<<1 - 1
)

// Response field-presence bits (Response.OK travels in a flags byte,
// not the mask).
const (
	respFError uint32 = 1 << iota
	respFCode
	respFExact
	respFCandidates
	respFCount
	respFCost
	respFStats
	respFDensity
	respFTraceID

	respFKnown = respFTraceID<<1 - 1
)

const respFlagOK byte = 1

// --- append helpers -------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendRect(b []byte, r Rect) []byte {
	b = appendF64(b, r.MinX)
	b = appendF64(b, r.MinY)
	b = appendF64(b, r.MaxX)
	return appendF64(b, r.MaxY)
}

// Packed object layout. Candidate lists are the downlink (the paper's
// dominant end-to-end cost, Sec. 6.3), so an object is packed, and
// packed losslessly: every float64 round-trips bit for bit (NaN
// payloads, -0, ±Inf, subnormals), because clients refine answers on
// the exact coordinates.
//
//	hdr     u8       objPoint | objSameName | objID64 | objFullWidth
//	widths  u8       point: MinX<<4 | MinY             (absent when
//	        2 x u8   rect:  MinX<<4 | MinY, MaxX<<4 | MaxY  objFullWidth)
//	id      zig-zag varint, or 8 fixed bytes when objID64
//	coords  the leading `width` bytes of each big-endian float64, Min
//	        corner first; the Max corner only when !objPoint
//	name    uvarint length + bytes; absent when objSameName
//
// A width counts the bytes of a float64 that are sent; the trailing
// 8-width bytes are zero and dropped. A pyramid-cell corner such as
// i x 156.25 keeps at most 4 bytes, 0 keeps none, an arbitrary float
// keeps all 8.
const (
	// objPoint: the Max corner's bits equal the Min corner's (a public
	// point target); only the Min corner is sent.
	objPoint byte = 1 << iota
	// objSameName: the name equals the previous object's in this frame,
	// so a run of equal names costs one bit per object and decodes to
	// one shared string. Never set on a frame's first object.
	objSameName
	// objID64: the id travels as 8 fixed bytes because its zig-zag
	// varint would be longer (a random 63-bit pseudonym); an id never
	// costs more than 8 bytes.
	objID64
	// objFullWidth: every coordinate keeps all 8 bytes, so the widths
	// are not sent (an arbitrary point pays no width byte).
	objFullWidth

	objKnown = objFullWidth<<1 - 1
)

// minObjectBytes is the smallest encoded object: header, one widths
// byte, a one-byte id, zero-width coordinates and a back-referenced
// name.
const minObjectBytes = 3

// fullWidths is the widths byte of two coordinates that keep all
// eight bytes each.
const fullWidths = 0x88

// widthsByte packs how many leading bytes of two big-endian float64s
// must be sent — all but their trailing zero bytes — as x<<4 | y.
func widthsByte(x, y uint64) byte {
	return byte((8-bits.TrailingZeros64(x)/8)<<4 | (8 - bits.TrailingZeros64(y)/8))
}

// putTrimmed stores v at s[k:] and returns the cursor advanced by
// width. The whole value is stored: the bytes left beyond the cursor
// are its zero tail, and the next store overwrites them.
func putTrimmed(s []byte, k int, v uint64, width byte) int {
	binary.BigEndian.PutUint64(s[k:], v)
	return k + int(width)
}

// appendObject appends o in the packed layout; prev is the object
// appended before it in this frame (nil for the first), which is what
// the name-run rule compares against.
func appendObject(b []byte, o, prev *Object) []byte {
	minX, minY := math.Float64bits(o.Rect.MinX), math.Float64bits(o.Rect.MinY)
	maxX, maxY := math.Float64bits(o.Rect.MaxX), math.Float64bits(o.Rect.MaxY)
	var hdr byte
	wMin, wMax := widthsByte(minX, minY), byte(fullWidths)
	if minX == maxX && minY == maxY {
		hdr |= objPoint
	} else {
		wMax = widthsByte(maxX, maxY)
	}
	if wMin == fullWidths && wMax == fullWidths {
		hdr |= objFullWidth
	}
	if prev != nil && o.Name == prev.Name {
		hdr |= objSameName
	}
	zz := uint64(o.ID<<1) ^ uint64(o.ID>>63)
	if zz >= 1<<56 {
		hdr |= objID64
	}
	// Header, widths, id and coordinates are stored straight into b's
	// spare capacity, which maxHead bounds.
	const maxHead = 1 + 2 + 8 + 4*8
	b = slices.Grow(b, maxHead)
	s := b[len(b) : len(b)+maxHead]
	s[0] = hdr
	k := 1
	if hdr&objFullWidth == 0 {
		s[k] = wMin
		k++
		if hdr&objPoint == 0 {
			s[k] = wMax
			k++
		}
	}
	if hdr&objID64 != 0 {
		binary.BigEndian.PutUint64(s[k:], uint64(o.ID))
		k += 8
	} else {
		k += binary.PutUvarint(s[k:], zz)
	}
	k = putTrimmed(s, k, minX, wMin>>4)
	k = putTrimmed(s, k, minY, wMin&0x0F)
	if hdr&objPoint == 0 {
		k = putTrimmed(s, k, maxX, wMax>>4)
		k = putTrimmed(s, k, maxY, wMax&0x0F)
	}
	b = b[:len(b)+k]
	if hdr&objSameName == 0 {
		b = binary.AppendUvarint(b, uint64(len(o.Name)))
		b = append(b, o.Name...)
	}
	return b
}

// sameObject reports whether two objects encode identically: equal id
// and name and bit-equal coordinates (so NaN equals itself and -0
// differs from 0, unlike ==).
func sameObject(a, b *Object) bool {
	return a.ID == b.ID && a.Name == b.Name &&
		math.Float64bits(a.Rect.MinX) == math.Float64bits(b.Rect.MinX) &&
		math.Float64bits(a.Rect.MinY) == math.Float64bits(b.Rect.MinY) &&
		math.Float64bits(a.Rect.MaxX) == math.Float64bits(b.Rect.MaxX) &&
		math.Float64bits(a.Rect.MaxY) == math.Float64bits(b.Rect.MaxY)
}

// appendRequest encodes req after the frame header.
func appendRequest(b []byte, req *Request) ([]byte, error) {
	code, known := opcodeByOp[req.Op]
	if !known {
		code = opcodeStringOp
	}
	b = append(b, code)
	if !known {
		if len(req.Op) > 255 {
			return nil, fmt.Errorf("op name too long (%d bytes)", len(req.Op))
		}
		b = appendString(b, req.Op)
	}
	var mask uint32
	if req.UserID != 0 {
		mask |= reqFUID
	}
	if req.X != 0 {
		mask |= reqFX
	}
	if req.Y != 0 {
		mask |= reqFY
	}
	if req.K != 0 {
		mask |= reqFK
	}
	if req.NN != 0 {
		mask |= reqFNN
	}
	if req.AMin != 0 {
		mask |= reqFAMin
	}
	if req.Radius != 0 {
		mask |= reqFRadius
	}
	if req.Rect != nil {
		mask |= reqFRect
	}
	if len(req.Batch) != 0 {
		mask |= reqFBatch
	}
	if req.Policy != "" {
		mask |= reqFPolicy
	}
	if req.Name != "" {
		mask |= reqFName
	}
	if req.PubID != 0 {
		mask |= reqFPubID
	}
	if req.TraceID != "" {
		mask |= reqFTraceID
	}
	b = appendU32(b, mask)
	if mask&reqFUID != 0 {
		b = appendI64(b, req.UserID)
	}
	if mask&reqFX != 0 {
		b = appendF64(b, req.X)
	}
	if mask&reqFY != 0 {
		b = appendF64(b, req.Y)
	}
	if mask&reqFK != 0 {
		b = appendI64(b, int64(req.K))
	}
	if mask&reqFNN != 0 {
		b = appendI64(b, int64(req.NN))
	}
	if mask&reqFAMin != 0 {
		b = appendF64(b, req.AMin)
	}
	if mask&reqFRadius != 0 {
		b = appendF64(b, req.Radius)
	}
	if mask&reqFRect != 0 {
		b = appendRect(b, *req.Rect)
	}
	if mask&reqFBatch != 0 {
		b = appendU32(b, uint32(len(req.Batch)))
		for i := range req.Batch {
			u := &req.Batch[i]
			b = appendI64(b, u.UserID)
			b = appendF64(b, u.X)
			b = appendF64(b, u.Y)
		}
	}
	if mask&reqFPolicy != 0 {
		b = appendString(b, req.Policy)
	}
	if mask&reqFName != 0 {
		b = appendString(b, req.Name)
	}
	if mask&reqFPubID != 0 {
		b = appendI64(b, req.PubID)
	}
	if mask&reqFTraceID != 0 {
		b = appendString(b, req.TraceID)
	}
	return b, nil
}

// appendResponse encodes resp after the frame header. Response
// encoding cannot fail: every representable Response has a frame.
func appendResponse(b []byte, resp *Response) []byte {
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	b = append(b, flags)
	var mask uint32
	if resp.Error != "" {
		mask |= respFError
	}
	if resp.Code != "" {
		mask |= respFCode
	}
	if resp.Exact != nil {
		mask |= respFExact
	}
	if len(resp.Candidates) != 0 {
		mask |= respFCandidates
	}
	if resp.Count != 0 {
		mask |= respFCount
	}
	if resp.Cost != nil {
		mask |= respFCost
	}
	if resp.Stats != nil {
		mask |= respFStats
	}
	if resp.Density != nil {
		mask |= respFDensity
	}
	if resp.TraceID != "" {
		mask |= respFTraceID
	}
	b = appendU32(b, mask)
	if mask&respFError != 0 {
		b = appendString(b, resp.Error)
	}
	if mask&respFCode != 0 {
		b = appendString(b, resp.Code)
	}
	// The candidate list precedes the exact answer (the one place the
	// byte order departs from the mask's bit order), because the exact
	// answer is normally a member of the list and travels as an index
	// into it.
	var prev *Object
	if mask&respFCandidates != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Candidates)))
		for i := range resp.Candidates {
			b = appendObject(b, &resp.Candidates[i], prev)
			prev = &resp.Candidates[i]
		}
	}
	if mask&respFExact != 0 {
		// uvarint 0 announces an inline object, i+1 names candidate i.
		ref := 0
		for i := range resp.Candidates {
			if sameObject(resp.Exact, &resp.Candidates[i]) {
				ref = i + 1
				break
			}
		}
		b = binary.AppendUvarint(b, uint64(ref))
		if ref == 0 {
			b = appendObject(b, resp.Exact, prev)
		}
	}
	if mask&respFCount != 0 {
		b = appendF64(b, resp.Count)
	}
	if mask&respFCost != 0 {
		b = binary.AppendVarint(b, resp.Cost.CloakNS)
		b = binary.AppendVarint(b, resp.Cost.QueryNS)
		b = binary.AppendVarint(b, resp.Cost.TransmitNS)
		b = binary.AppendVarint(b, int64(resp.Cost.Candidates))
	}
	if mask&respFStats != 0 {
		b = appendStats(b, resp.Stats)
	}
	if mask&respFDensity != 0 {
		b = appendU32(b, uint32(len(resp.Density)))
		for _, row := range resp.Density {
			b = appendU32(b, uint32(len(row)))
			for _, v := range row {
				b = appendF64(b, v)
			}
		}
	}
	if mask&respFTraceID != 0 {
		b = appendString(b, resp.TraceID)
	}
	return b
}

// densityGridRoom is what a density answer's frame leaves for its
// grid: MaxFrameBytes less the request id, the flags byte, the field
// mask, the row count and the longest trace id a response echoes (its
// length prefix plus trace.MaxIDLen). Each of the n rows of an n x n
// grid then takes a u32 length and n f64 cells, so at 1 MiB the finest
// grid that fits is 361 x 361.
const densityGridRoom = MaxFrameBytes - frameIDLen - 1 - 4 - 4 - (4 + trace.MaxIDLen)

// densityFits reports whether the answer to an n x n density request
// fits one frame. The first test keeps the product from overflowing.
func densityFits(n int) bool {
	return n <= densityGridRoom/8 && n*(4+8*n) <= densityGridRoom
}

// The stats block (respFStats) carries core.Stats whole, fields in
// declaration order:
//
//	backend                           str
//	users public_objects queries
//	update_cost                       4 x i64
//	continuous                        u8 presence, then 4 x i64 when 1
//	privacy.backends                  u32 count, then per backend: name
//	                                  str, 3 x i64 counts, 6 x f64 k and
//	                                  area statistics
//	privacy.k_satisfied_fraction      f64
//	privacy.entropy                   2 x f64, window i64
//	privacy.linkage                   estimate f64, evidence u8, 3 x i64
//	privacy.epsilon                   3 x f64, 2 x i64
//	privacy.slo                       2 x f64, ok u8
//
// Booleans are one byte, 0 or 1.

// backendRowBytes is the encoded size of a privacy backend row with an
// empty name.
const backendRowBytes = 4 + 3*8 + 6*8

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStats(b []byte, st *core.Stats) []byte {
	b = appendString(b, st.Backend)
	b = appendI64(b, int64(st.Users))
	b = appendI64(b, int64(st.PublicObjs))
	b = appendI64(b, st.Queries)
	b = appendI64(b, st.UpdateCost)
	b = appendBool(b, st.Continuous != nil)
	if c := st.Continuous; c != nil {
		b = appendI64(b, int64(c.Queries))
		b = appendI64(b, c.Updates)
		b = appendI64(b, c.Evaluations)
		b = appendI64(b, c.SafeRegionHits)
	}
	p := &st.Privacy
	b = appendU32(b, uint32(len(p.Backends)))
	for i := range p.Backends {
		row := &p.Backends[i]
		b = appendString(b, row.Backend)
		b = appendI64(b, row.Releases)
		b = appendI64(b, row.RegionReleases)
		b = appendI64(b, row.KViolations)
		for _, v := range [...]float64{row.KMean, row.KP50, row.KP99, row.AreaMean, row.AreaP50, row.AreaP99} {
			b = appendF64(b, v)
		}
	}
	b = appendF64(b, p.KSatisfiedFraction)
	b = appendF64(b, p.Entropy.MeanBits)
	b = appendF64(b, p.Entropy.MinBits)
	b = appendI64(b, int64(p.Entropy.Window))
	b = appendF64(b, p.Linkage.Estimate)
	b = appendBool(b, p.Linkage.Evidence)
	b = appendI64(b, int64(p.Linkage.TrackedUsers))
	b = appendI64(b, p.Linkage.Untracked)
	b = appendI64(b, p.Linkage.Resets)
	b = appendF64(b, p.Epsilon.SpentTotal)
	b = appendF64(b, p.Epsilon.MaxUser)
	b = appendF64(b, p.Epsilon.Budget)
	b = appendI64(b, p.Epsilon.Users)
	b = appendI64(b, p.Epsilon.Refusals)
	b = appendF64(b, p.SLO.MinKSatisfied)
	b = appendF64(b, p.SLO.MaxLinkage)
	return appendBool(b, p.SLO.OK)
}

// --- bounds-checked reader ------------------------------------------

// wireReader walks a frame payload. The first over-read latches bad;
// every subsequent read returns zero values, so decode functions check
// bad once at the end instead of after every field.
type wireReader struct {
	b   []byte
	off int
	bad bool

	// prevName is the name of the last object decoded from this frame
	// (valid once named is set): the name-run state of object().
	prevName string
	named    bool
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() byte {
	if r.bad || r.remaining() < 1 {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.bad || r.remaining() < 4 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.bad || r.remaining() < 8 {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i64() int64   { return int64(r.u64()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// narrow converts a decoded int64 to int, rejecting values that do
// not survive the round trip on 32-bit platforms.
func (r *wireReader) narrow(v int64) int {
	n := int(v)
	if int64(n) != v {
		r.bad = true
		return 0
	}
	return n
}

// intField decodes an i64 and narrows it to int.
func (r *wireReader) intField() int { return r.narrow(r.i64()) }

// boolean decodes a one-byte bool; any byte but 0 or 1 is malformed,
// so every value has exactly one encoding.
func (r *wireReader) boolean() bool {
	v := r.u8()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

// stats decodes the stats block (see appendStats).
func (r *wireReader) stats() *core.Stats {
	st := &core.Stats{
		Backend:    r.str(),
		Users:      r.intField(),
		PublicObjs: r.intField(),
		Queries:    r.i64(),
		UpdateCost: r.i64(),
	}
	if r.boolean() {
		st.Continuous = &core.ContinuousStats{
			Queries:        r.intField(),
			Updates:        r.i64(),
			Evaluations:    r.i64(),
			SafeRegionHits: r.i64(),
		}
	}
	p := &st.Privacy
	if n := r.count(backendRowBytes); n > 0 {
		p.Backends = make([]privacyobs.BackendSnapshot, n)
		for i := range p.Backends {
			p.Backends[i] = privacyobs.BackendSnapshot{
				Backend:        r.str(),
				Releases:       r.i64(),
				RegionReleases: r.i64(),
				KViolations:    r.i64(),
				KMean:          r.f64(),
				KP50:           r.f64(),
				KP99:           r.f64(),
				AreaMean:       r.f64(),
				AreaP50:        r.f64(),
				AreaP99:        r.f64(),
			}
		}
	}
	p.KSatisfiedFraction = r.f64()
	p.Entropy = privacyobs.EntropySnapshot{MeanBits: r.f64(), MinBits: r.f64(), Window: r.intField()}
	p.Linkage = privacyobs.LinkageSnapshot{
		Estimate:     r.f64(),
		Evidence:     r.boolean(),
		TrackedUsers: r.intField(),
		Untracked:    r.i64(),
		Resets:       r.i64(),
	}
	p.Epsilon = privacyobs.EpsilonSnapshot{
		SpentTotal: r.f64(),
		MaxUser:    r.f64(),
		Budget:     r.f64(),
		Users:      r.i64(),
		Refusals:   r.i64(),
	}
	p.SLO = privacyobs.SLOSnapshot{MinKSatisfied: r.f64(), MaxLinkage: r.f64(), OK: r.boolean()}
	return st
}

func (r *wireReader) str() string {
	n := r.u32()
	if r.bad || int(n) > r.remaining() {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads an element count and rejects any that could not fit in
// the remaining bytes at minBytes per element — the guard that stops
// a 12-byte frame from demanding a billion-entry allocation.
func (r *wireReader) count(minBytes int) int {
	n := r.u32()
	if r.bad || int64(n)*int64(minBytes) > int64(r.remaining()) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *wireReader) rect() Rect {
	return Rect{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
}

// uvarint decodes an unsigned varint, rejecting truncation, values
// that overflow 64 bits, and over-long spellings (a final zero byte
// after a continuation), so every value has exactly one encoding.
func (r *wireReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// varint decodes a zig-zag signed varint.
func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// uvarintCount is count for a uvarint-encoded element count.
func (r *wireReader) uvarintCount(minBytes int) int {
	n := r.uvarint()
	if r.bad || n > uint64(r.remaining()/minBytes) {
		r.bad = true
		return 0
	}
	return int(n)
}

// trimmed decodes a float64 sent as its leading width bytes (see
// appendObject); a width above 8 is malformed.
func (r *wireReader) trimmed(w byte) float64 {
	width := int(w)
	if r.bad || width > 8 || r.remaining() < width {
		r.bad = true
		return 0
	}
	var v uint64
	for _, c := range r.b[r.off : r.off+width] {
		v = v<<8 | uint64(c)
	}
	r.off += width
	return math.Float64frombits(v << (8 * (8 - width))) // the dropped tail is zero
}

// object decodes one packed object (see appendObject). A run of equal
// names decodes to one shared string.
func (r *wireReader) object() Object {
	hdr := r.u8()
	if hdr&^objKnown != 0 || (hdr&objSameName != 0 && !r.named) {
		r.bad = true
	}
	wMin, wMax := byte(fullWidths), byte(fullWidths)
	if hdr&objFullWidth == 0 {
		wMin = r.u8()
		if hdr&objPoint == 0 {
			wMax = r.u8()
		}
	}
	var o Object
	if hdr&objID64 != 0 {
		o.ID = r.i64()
	} else {
		o.ID = r.varint()
	}
	o.Rect.MinX, o.Rect.MinY = r.trimmed(wMin>>4), r.trimmed(wMin&0x0F)
	if hdr&objPoint != 0 {
		o.Rect.MaxX, o.Rect.MaxY = o.Rect.MinX, o.Rect.MinY
	} else {
		o.Rect.MaxX, o.Rect.MaxY = r.trimmed(wMax>>4), r.trimmed(wMax&0x0F)
	}
	if hdr&objSameName != 0 {
		o.Name = r.prevName
	} else {
		nameLen := r.uvarint()
		if r.bad || nameLen > uint64(r.remaining()) {
			r.bad = true
			return Object{}
		}
		o.Name = string(r.b[r.off : r.off+int(nameLen)])
		r.off += int(nameLen)
	}
	r.prevName, r.named = o.Name, true
	return o
}

// finish validates that the payload was consumed exactly.
func (r *wireReader) finish(what string) error {
	if r.bad {
		return fmt.Errorf("truncated or malformed %s frame", what)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%s frame has %d trailing bytes", what, len(r.b)-r.off)
	}
	return nil
}

// decodeRequest decodes a request payload (the bytes after the
// request id). It never panics and never over-reads, whatever b holds.
func decodeRequest(b []byte) (Request, error) {
	r := wireReader{b: b}
	var req Request
	code := r.u8()
	switch {
	case code == opcodeStringOp:
		req.Op = r.str()
	case code < opcodeEnd && opByOpcode[code] != "":
		req.Op = opByOpcode[code]
	default:
		return Request{}, fmt.Errorf("unknown opcode %d", code)
	}
	mask := r.u32()
	if mask&^reqFKnown != 0 {
		return Request{}, fmt.Errorf("unknown request field mask %#x", mask&^reqFKnown)
	}
	if mask&reqFUID != 0 {
		req.UserID = r.i64()
	}
	if mask&reqFX != 0 {
		req.X = r.f64()
	}
	if mask&reqFY != 0 {
		req.Y = r.f64()
	}
	if mask&reqFK != 0 {
		req.K = r.intField()
	}
	if mask&reqFNN != 0 {
		req.NN = r.intField()
	}
	if mask&reqFAMin != 0 {
		req.AMin = r.f64()
	}
	if mask&reqFRadius != 0 {
		req.Radius = r.f64()
	}
	if mask&reqFRect != 0 {
		rect := r.rect()
		req.Rect = &rect
	}
	if mask&reqFBatch != 0 {
		n := r.count(24)
		if n > 0 {
			req.Batch = make([]BatchUpdate, n)
			for i := range req.Batch {
				req.Batch[i] = BatchUpdate{UserID: r.i64(), X: r.f64(), Y: r.f64()}
			}
		}
	}
	if mask&reqFPolicy != 0 {
		req.Policy = r.str()
	}
	if mask&reqFName != 0 {
		req.Name = r.str()
	}
	if mask&reqFPubID != 0 {
		req.PubID = r.i64()
	}
	if mask&reqFTraceID != 0 {
		req.TraceID = r.str()
	}
	if err := r.finish("request"); err != nil {
		return Request{}, err
	}
	return req, nil
}

// decodeResponse decodes a response payload; same guarantees as
// decodeRequest.
func decodeResponse(b []byte) (Response, error) {
	r := wireReader{b: b}
	var resp Response
	flags := r.u8()
	if flags&^respFlagOK != 0 {
		return Response{}, fmt.Errorf("unknown response flags %#x", flags&^respFlagOK)
	}
	resp.OK = flags&respFlagOK != 0
	mask := r.u32()
	if mask&^respFKnown != 0 {
		return Response{}, fmt.Errorf("unknown response field mask %#x", mask&^respFKnown)
	}
	if mask&respFError != 0 {
		resp.Error = r.str()
	}
	if mask&respFCode != 0 {
		resp.Code = r.str()
	}
	if mask&respFCandidates != 0 {
		// A packed object is at least minObjectBytes (3) on the wire and
		// an Object is 56 bytes in memory, so the list this allocates is
		// at most 56/3 < 19 times the frame's length (under 20 MiB at
		// MaxFrameBytes); names add nothing beyond the frame's own bytes.
		n := r.uvarintCount(minObjectBytes)
		if n > 0 {
			resp.Candidates = make([]Object, n)
			for i := range resp.Candidates {
				resp.Candidates[i] = r.object()
			}
		}
	}
	if mask&respFExact != 0 {
		var o Object
		if ref := r.uvarint(); ref == 0 {
			o = r.object()
		} else if ref <= uint64(len(resp.Candidates)) {
			o = resp.Candidates[ref-1]
		} else {
			r.bad = true
		}
		resp.Exact = &o
	}
	if mask&respFCount != 0 {
		resp.Count = r.f64()
	}
	if mask&respFCost != 0 {
		resp.Cost = &Cost{
			CloakNS:    r.varint(),
			QueryNS:    r.varint(),
			TransmitNS: r.varint(),
			Candidates: r.narrow(r.varint()),
		}
	}
	if mask&respFStats != 0 {
		resp.Stats = r.stats()
	}
	if mask&respFDensity != 0 {
		rows := r.count(4)
		resp.Density = make([][]float64, 0, rows)
		for i := 0; i < rows && !r.bad; i++ {
			cols := r.count(8)
			row := make([]float64, cols)
			for j := range row {
				row[j] = r.f64()
			}
			resp.Density = append(resp.Density, row)
		}
	}
	if mask&respFTraceID != 0 {
		resp.TraceID = r.str()
	}
	if err := r.finish("response"); err != nil {
		return Response{}, err
	}
	return resp, nil
}
