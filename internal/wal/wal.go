// Package wal implements a write-ahead log for the location-based
// database server, so a casperd deployment survives restarts without
// losing the public table or the stored cloaked regions.
//
// The log is a sequence of length-prefixed, CRC-protected binary
// records:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// with a fixed 8-byte magic header identifying the file and format
// version. Replay applies complete, checksummed records in order and
// stops cleanly at the first truncated or corrupt record — the
// standard WAL crash-recovery contract (a torn tail from a crash is
// expected; anything after it is discarded). Compact rewrites the log
// to the current logical state, bounding file growth.
//
// Only mutations are logged (queries are pure), and the log carries
// pseudonymous cloaked regions exactly as the server stores them — no
// exact user location ever reaches disk, preserving the privacy
// boundary across restarts.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// magic identifies a Casper WAL file (format version 1).
var magic = [8]byte{'C', 'A', 'S', 'P', 'W', 'A', 'L', 1}

// RecordType enumerates logged mutations.
type RecordType uint8

// Record types.
const (
	// PublicAdd adds a public object (point + name).
	PublicAdd RecordType = iota + 1
	// PublicRemove removes a public object by ID.
	PublicRemove
	// PrivateUpsert stores/refreshes one cloaked region by pseudonym.
	// The server no longer writes it, but it is still decoded so older
	// logs replay, and still encoded for callers that write a
	// standalone log of single updates.
	PrivateUpsert
	// PrivateRemove deletes a cloaked region by pseudonym.
	PrivateRemove
	// PrivateUpsertBatch stores/refreshes many cloaked regions in one
	// record: the server's only private-upsert record, written for
	// every upsert (a single update is a batch of one) and by
	// compaction. Logs written by older versions may not contain it;
	// older versions reading a newer log stop replay cleanly at the
	// first batch record (the standard unknown-record contract).
	PrivateUpsertBatch
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case PublicAdd:
		return "public-add"
	case PublicRemove:
		return "public-remove"
	case PrivateUpsert:
		return "private-upsert"
	case PrivateRemove:
		return "private-remove"
	case PrivateUpsertBatch:
		return "private-upsert-batch"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one logged mutation. Coordinates are (X0, Y0) for points;
// rectangles use all four. Name is set only for PublicAdd; Batch is
// set only for PrivateUpsertBatch (and the scalar fields are then
// unused).
type Record struct {
	Type           RecordType
	ID             int64
	X0, Y0, X1, Y1 float64
	Name           string
	Batch          []BatchEntry
}

// BatchEntry is one (pseudonym, cloaked region) pair of a
// PrivateUpsertBatch record.
type BatchEntry struct {
	ID             int64
	X0, Y0, X1, Y1 float64
}

// maxNameLen bounds the variable-length field so a corrupt length
// cannot allocate unbounded memory during replay.
const maxNameLen = 1 << 12

// MaxBatchEntries bounds a PrivateUpsertBatch record; larger batches
// must be chunked into multiple records by the caller.
const MaxBatchEntries = 4096

// batchEntrySize is the encoded size of one BatchEntry: id + 4 floats.
const batchEntrySize = 8 + 4*8

// maxPayload is the largest well-formed payload: the batch layout
// (type + u32 count + entries) dominates the scalar layout
// (type + id + 4 floats + name length + name).
const maxPayload = 1 + 4 + MaxBatchEntries*batchEntrySize

// Log is an append-only WAL handle. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
}

// Create truncates/creates the log at path and writes the header.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	return &Log{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// OpenAppend opens an existing log for appending. The caller should
// Replay first; OpenAppend truncates any torn tail so new records
// start on a clean boundary.
func OpenAppend(path string) (*Log, error) {
	valid, err := validPrefixLen(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Append writes one record (buffered; call Sync for durability).
func (l *Log) Append(r Record) error {
	payload, err := encode(r)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// Sync flushes buffers and fsyncs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flush on close: %w", err)
	}
	return l.f.Close()
}

// Path returns the file path.
func (l *Log) Path() string { return l.path }

// RecordSize returns the on-disk size of one appended record,
// length/CRC header included — what Append will add to the file.
func RecordSize(r Record) int {
	if r.Type == PrivateUpsertBatch {
		return 8 + 1 + 4 + len(r.Batch)*batchEntrySize
	}
	return 8 + 1 + 8 + 32 + 2 + len(r.Name)
}

// ErrBadHeader reports a file that is not a Casper WAL.
var ErrBadHeader = errors.New("wal: bad file header")

// Replay reads path and calls fn for every complete, checksummed
// record in order, stopping cleanly at the first truncated or corrupt
// record. It returns the number of records applied. A missing file
// replays zero records without error.
func Replay(path string, fn func(Record) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, ErrBadHeader
		}
		return 0, fmt.Errorf("wal: read header: %w", err)
	}
	if hdr != magic {
		return 0, ErrBadHeader
	}
	n := 0
	for {
		rec, ok := readRecord(r)
		if !ok {
			return n, nil
		}
		if err := fn(rec); err != nil {
			return n, fmt.Errorf("wal: apply record %d: %w", n, err)
		}
		n++
	}
}

// validPrefixLen computes the byte offset just past the last complete,
// checksummed record (header included).
func validPrefixLen(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || hdr != magic {
		return 0, ErrBadHeader
	}
	offset := int64(len(magic))
	for {
		var lenbuf [8]byte
		if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
			return offset, nil
		}
		plen := binary.LittleEndian.Uint32(lenbuf[0:4])
		want := binary.LittleEndian.Uint32(lenbuf[4:8])
		if plen == 0 || plen > maxPayload {
			return offset, nil
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, nil
		}
		if crc32.ChecksumIEEE(payload) != want {
			return offset, nil
		}
		if _, ok := decode(payload); !ok {
			return offset, nil
		}
		offset += 8 + int64(plen)
	}
}

// readRecord reads the next record; ok is false at EOF, a torn tail,
// or corruption (all of which end replay).
func readRecord(r *bufio.Reader) (Record, bool) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, false
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if plen == 0 || plen > maxPayload {
		return Record{}, false
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, false
	}
	if crc32.ChecksumIEEE(payload) != want {
		return Record{}, false
	}
	return decode(payload)
}

func encode(r Record) ([]byte, error) {
	if r.Type == PrivateUpsertBatch {
		return encodeBatch(r)
	}
	if r.Type < PublicAdd || r.Type > PrivateRemove {
		return nil, fmt.Errorf("wal: invalid record type %d", r.Type)
	}
	if len(r.Name) > maxNameLen {
		return nil, fmt.Errorf("wal: name too long (%d bytes)", len(r.Name))
	}
	buf := make([]byte, 0, 1+8+32+2+len(r.Name))
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
	for _, v := range []float64{r.X0, r.Y0, r.X1, r.Y1} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Name)))
	buf = append(buf, r.Name...)
	return buf, nil
}

func decode(payload []byte) (Record, bool) {
	if len(payload) >= 1 && RecordType(payload[0]) == PrivateUpsertBatch {
		return decodeBatch(payload)
	}
	const fixed = 1 + 8 + 32 + 2
	if len(payload) < fixed {
		return Record{}, false
	}
	var r Record
	r.Type = RecordType(payload[0])
	if r.Type < PublicAdd || r.Type > PrivateRemove {
		return Record{}, false
	}
	r.ID = int64(binary.LittleEndian.Uint64(payload[1:9]))
	r.X0 = math.Float64frombits(binary.LittleEndian.Uint64(payload[9:17]))
	r.Y0 = math.Float64frombits(binary.LittleEndian.Uint64(payload[17:25]))
	r.X1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[25:33]))
	r.Y1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[33:41]))
	nameLen := int(binary.LittleEndian.Uint16(payload[41:43]))
	if len(payload) != fixed+nameLen {
		return Record{}, false
	}
	r.Name = string(payload[fixed:])
	return r, true
}

// encodeBatch lays out a PrivateUpsertBatch payload:
// type (1) | u32 entry count (4) | count × (id 8, four floats 32).
func encodeBatch(r Record) ([]byte, error) {
	if len(r.Batch) == 0 {
		return nil, fmt.Errorf("wal: empty batch record")
	}
	if len(r.Batch) > MaxBatchEntries {
		return nil, fmt.Errorf("wal: batch too large (%d entries, max %d)", len(r.Batch), MaxBatchEntries)
	}
	buf := make([]byte, 0, 1+4+len(r.Batch)*batchEntrySize)
	buf = append(buf, byte(PrivateUpsertBatch))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Batch)))
	for _, e := range r.Batch {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
		for _, v := range []float64{e.X0, e.Y0, e.X1, e.Y1} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

func decodeBatch(payload []byte) (Record, bool) {
	const hdr = 1 + 4
	if len(payload) < hdr {
		return Record{}, false
	}
	count := int(binary.LittleEndian.Uint32(payload[1:5]))
	if count < 1 || count > MaxBatchEntries || len(payload) != hdr+count*batchEntrySize {
		return Record{}, false
	}
	r := Record{Type: PrivateUpsertBatch, Batch: make([]BatchEntry, count)}
	off := hdr
	for i := range r.Batch {
		e := &r.Batch[i]
		e.ID = int64(binary.LittleEndian.Uint64(payload[off : off+8]))
		e.X0 = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8 : off+16]))
		e.Y0 = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16 : off+24]))
		e.X1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24 : off+32]))
		e.Y1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+32 : off+40]))
		off += batchEntrySize
	}
	return r, true
}
