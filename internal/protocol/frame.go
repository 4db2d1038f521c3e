package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The wire is length-prefixed binary framing with per-request IDs: a
// single connection carries many concurrent requests and the server
// may answer them out of order, so one slow query never convoys the
// rest of the stream.
//
// binaryRevision is the byte the handshake exchanges: the revision of
// the payload layout. Revision 2 sent response objects at fixed width;
// revision 3 packs them (binary.go). There is one layout per build and
// no fallback decoder, so peers of different revisions refuse each
// other here, at the handshake, instead of mis-decoding frames. Bump it
// whenever the payload layout changes incompatibly.
const binaryRevision byte = 3

// handshakeLen is the length of hello.
const handshakeLen = 5

// hello opens every connection, in both directions: the magic "CSPR"
// plus this build's binaryRevision. Each side hangs up unless the
// peer's five bytes equal its own; nothing is negotiated.
var hello = [handshakeLen]byte{'C', 'S', 'P', 'R', binaryRevision}

// Frame layout (all integers big-endian):
//
//	+--------+------------+---------------------+
//	| u32 len| u64 req id | payload (len-8 B)   |
//	+--------+------------+---------------------+
//
// len counts everything after the length field itself (request id +
// payload), so len >= frameIDLen always; frames longer than
// MaxFrameBytes drop the connection.
const frameIDLen = 8

// errFrameTooLarge reports a frame whose declared length exceeds
// MaxFrameBytes; the connection is surrendered.
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

// encodeRequestFrame encodes one request frame into a pooled
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

// encodeResponseFrame encodes one response frame into a pooled
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

// readFrame reads one frame, reusing *buf across calls. The
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
