package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Protocol versions. Version 1 is the original newline-delimited JSON
// protocol (one request, one response, strictly in order). Version 2
// is length-prefixed binary framing with per-request IDs: a single
// connection carries many concurrent requests and the server may
// answer them out of order, so one slow query never convoys the rest
// of the stream.
//
// The server needs no configuration to speak both: it sniffs the first
// bytes of each connection. A '{' (or any non-magic byte) means a v1
// JSON client; the 4-byte v2 magic starts a version handshake.
const (
	// Version1 is newline-delimited JSON.
	Version1 = 1
	// Version2 is pipelined length-prefixed binary framing.
	Version2 = 2
)

// binaryRevision is the byte the binary handshake exchanges: the
// revision of the v2 payload layout, which is not the user-facing
// protocol number (that stays Version2, the -protocol 2 spelling).
// Revision 2 sent response objects at fixed width; revision 3 packs
// them (binary.go). There is one layout per build and no fallback
// decoder, so peers of different revisions refuse each other here, at
// the handshake, instead of mis-decoding frames. Bump it whenever the
// payload layout changes incompatibly.
const binaryRevision byte = 3

// magicV2 opens a v2 connection. The first byte ('C') can never begin
// a v1 frame (JSON objects start with '{', and blank keep-alive lines
// with '\n'), which is what makes server-side sniffing unambiguous.
var magicV2 = [4]byte{'C', 'S', 'P', 'R'}

// handshakeLen is magic + one revision byte, in both directions: each
// side sends magic plus its own binaryRevision and hangs up unless the
// peer's byte is equal. Nothing is negotiated.
const handshakeLen = 5

// v2 frame layout (all integers big-endian):
//
//	+--------+------------+---------------------+
//	| u32 len| u64 req id | payload (len-8 B)   |
//	+--------+------------+---------------------+
//
// len counts everything after the length field itself (request id +
// payload), so len >= frameIDLen always; frames longer than
// MaxFrameBytes drop the connection, mirroring the v1 line limit.
const frameIDLen = 8

// errFrameTooLarge reports a frame whose declared length exceeds
// MaxFrameBytes; the connection is surrendered, exactly like an
// oversized v1 line.
var errFrameTooLarge = errors.New("frame exceeds size limit")

// frameBufPool recycles frame encode/read buffers so steady-state
// request traffic allocates no per-frame memory.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

// putFrameBuf returns a buffer to the pool unless it grew unusually
// large (one giant density response should not pin memory forever).
func putFrameBuf(b *[]byte) {
	if cap(*b) > 1<<18 {
		return
	}
	*b = (*b)[:0]
	frameBufPool.Put(b)
}

// beginFrame starts a frame in buf: a 4-byte length placeholder plus
// the request id. finishFrame back-fills the length.
func beginFrame(buf []byte, id uint64) []byte {
	buf = append(buf, 0, 0, 0, 0)
	return binary.BigEndian.AppendUint64(buf, id)
}

// finishFrame back-fills the length prefix once the payload is known.
func finishFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// encodeRequestFrame encodes one v2 request frame into a pooled
// buffer. The caller owns the returned buffer and must return it with
// putFrameBuf after writing it out.
func encodeRequestFrame(id uint64, req *Request) (*[]byte, error) {
	bp := getFrameBuf()
	b := beginFrame((*bp)[:0], id)
	b, err := appendRequest(b, req)
	if err != nil {
		putFrameBuf(bp)
		return nil, err
	}
	if len(b) > MaxFrameBytes+4 {
		putFrameBuf(bp)
		return nil, errFrameTooLarge
	}
	*bp = finishFrame(b)
	return bp, nil
}

// encodeResponseFrame encodes one v2 response frame into a pooled
// buffer; same ownership contract, and the same size limit, as
// encodeRequestFrame: the peer's readFrame answers a frame above
// MaxFrameBytes by dropping the connection and every request in flight
// on it, so such a frame must never be written.
func encodeResponseFrame(id uint64, resp *Response) (*[]byte, error) {
	bp := getFrameBuf()
	b := appendResponse(beginFrame((*bp)[:0], id), resp)
	if len(b) > MaxFrameBytes+4 {
		putFrameBuf(bp)
		return nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, len(b)-4, MaxFrameBytes)
	}
	*bp = finishFrame(b)
	return bp, nil
}

// readFrame reads one v2 frame, reusing *buf across calls. The
// returned payload aliases *buf and is valid until the next call.
func readFrame(br *bufio.Reader, buf *[]byte) (id uint64, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < frameIDLen {
		return 0, nil, fmt.Errorf("frame length %d shorter than the request id", n)
	}
	if n > MaxFrameBytes {
		return 0, nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, MaxFrameBytes)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint64(b[:frameIDLen]), b[frameIDLen:], nil
}
