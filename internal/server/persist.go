package server

import (
	"fmt"
	"os"
	"time"

	"casper/internal/geom"
	"casper/internal/trace"
	"casper/internal/wal"
)

// Persistent names a Server opened by OpenPersistent. It is the same
// type: durability is the log attached to a Server, not a wrapper.
type Persistent = Server

// OpenPersistent recovers a server from the WAL at path (creating an
// empty log when none exists) and returns it with the log attached, so
// every later mutation is logged before it is applied. The log holds
// only what the server itself may see — pseudonyms and cloaked
// rectangles, never exact user locations — so persistence does not
// widen the privacy boundary.
func OpenPersistent(path string) (*Server, error) {
	s := New()
	n, err := wal.Replay(path, func(r wal.Record) error { return apply(s, r) })
	if err != nil {
		return nil, fmt.Errorf("server: recover: %w", err)
	}
	if n == 0 {
		// Fresh or unusable file: start a clean log.
		s.log, err = wal.Create(path)
	} else {
		s.log, err = wal.OpenAppend(path)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// apply replays one WAL record into a server with no log attached,
// through the same mutators the live server ran. A record the live
// server would refuse — a duplicate add, a remove of a missing object,
// an invalid region, all of which logs written by older servers can
// hold — is refused again and skipped, so replay rebuilds exactly the
// state that was live.
func apply(s *Server, r wal.Record) error {
	switch r.Type {
	case wal.PublicAdd:
		_ = s.AddPublic(PublicObject{ID: r.ID, Pos: geom.Pt(r.X0, r.Y0), Name: r.Name})
	case wal.PublicRemove:
		_ = s.RemovePublic(r.ID)
	case wal.PrivateUpsert:
		_ = s.UpsertPrivate(PrivateObject{ID: r.ID, Region: rect(r.X0, r.Y0, r.X1, r.Y1)})
	case wal.PrivateUpsertBatch:
		objs := make([]PrivateObject, len(r.Batch))
		for i, e := range r.Batch {
			objs[i] = PrivateObject{ID: e.ID, Region: rect(e.X0, e.Y0, e.X1, e.Y1)}
		}
		_ = s.UpsertPrivateBatch(objs)
	case wal.PrivateRemove:
		_ = s.RemovePrivate(r.ID)
	default:
		return fmt.Errorf("server: unknown WAL record %v", r.Type)
	}
	return nil
}

// rect rebuilds a logged region corner for corner. geom.R would swap
// inverted corners and so accept a region the live server refused.
func rect(x0, y0, x1, y1 float64) geom.Rect {
	return geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x1, y1)}
}

func publicAddRecord(o PublicObject) wal.Record {
	return wal.Record{Type: wal.PublicAdd, ID: o.ID, X0: o.Pos.X, Y0: o.Pos.Y, Name: o.Name}
}

// privateUpsertRecords encodes cloaks as PrivateUpsertBatch records of
// at most wal.MaxBatchEntries entries each — the one private encoding
// both the upsert path and compaction write.
func privateUpsertRecords(objs []PrivateObject) []wal.Record {
	recs := make([]wal.Record, 0, (len(objs)+wal.MaxBatchEntries-1)/wal.MaxBatchEntries)
	for start := 0; start < len(objs); start += wal.MaxBatchEntries {
		chunk := objs[start:min(start+wal.MaxBatchEntries, len(objs))]
		rec := wal.Record{Type: wal.PrivateUpsertBatch, Batch: make([]wal.BatchEntry, len(chunk))}
		for i, o := range chunk {
			rec.Batch[i] = wal.BatchEntry{
				ID: o.ID,
				X0: o.Region.Min.X, Y0: o.Region.Min.Y,
				X1: o.Region.Max.X, Y1: o.Region.Max.Y,
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// logLocked appends recs to the log, keeping the WAL counters in step
// and recording a "wal_append" span into tr when it is non-nil. It is a
// no-op with no log attached. Callers hold writeMu and have already
// validated the mutation, so a refused write never reaches the log.
func (s *Server) logLocked(tr *trace.Trace, recs ...wal.Record) error {
	if s.log == nil {
		return nil
	}
	sp := tr.StartSpan("wal_append")
	var bytes, entries int64
	var err error
	for _, r := range recs {
		if err = s.log.Append(r); err != nil {
			walAppendErrors.Inc()
			break
		}
		n := int64(wal.RecordSize(r))
		walAppends.Inc()
		walAppendBytes.Add(n)
		bytes += n
		entries += int64(max(len(r.Batch), 1))
	}
	if tr != nil {
		sp.End(trace.Int("bytes", bytes), trace.Int("entries", entries))
	}
	return err
}

// Sync makes all appended records durable. It is a no-op with no log.
func (s *Server) Sync() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.syncLocked()
}

func (s *Server) syncLocked() error {
	if s.log == nil {
		return nil
	}
	start := time.Now()
	if err := s.log.Sync(); err != nil {
		return err
	}
	walSyncs.Inc()
	walSyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Compact rewrites the log so it contains exactly the current state:
// one PublicAdd per public object and the cloaks as PrivateUpsertBatch
// records. The snapshot is written to a temporary file, synced, and
// atomically renamed over the old log, so a crash at any point leaves
// either the full old log or the full snapshot — never a mix. It is a
// no-op with no log.
func (s *Server) Compact() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.compactLocked()
}

func (s *Server) compactLocked() error {
	if s.log == nil {
		return nil
	}
	start := time.Now()
	if err := s.compactSwapLocked(); err != nil {
		walCompactErrors.Inc()
		return err
	}
	walCompactions.Inc()
	walCompactSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// compactSwapLocked writes the snapshot and swaps it in. The live log
// stays open — and s.log stays valid — until the snapshot is complete
// and durable, so a failure at any step leaves the server fully
// usable on the old log with the temp file cleaned up; s.log is
// swapped only after the rename lands. Holding writeMu keeps the
// tables still while they are read.
func (s *Server) compactSwapLocked() error {
	path := s.log.Path()
	tmpPath := path + ".compact"
	tmp, err := wal.Create(tmpPath)
	if err != nil {
		return err
	}
	// abandon discards a half-written snapshot, keeping the live log.
	abandon := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	for _, o := range s.pubIdx {
		if err := tmp.Append(publicAddRecord(o)); err != nil {
			return abandon(err)
		}
	}
	privs := make([]PrivateObject, 0, len(s.privIdx))
	for _, o := range s.privIdx {
		privs = append(privs, o)
	}
	for _, r := range privateUpsertRecords(privs) {
		if err := tmp.Append(r); err != nil {
			return abandon(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return abandon(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// The snapshot is durable; now retire the old log and swap. From
	// here a failure reopens the log at path so s.log never points at
	// a closed handle (records the failed close did not flush are
	// still in memory and will be captured by the next compaction).
	if err := s.log.Close(); err != nil {
		os.Remove(tmpPath)
		if reopened, rerr := wal.OpenAppend(path); rerr == nil {
			s.log = reopened
		}
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		err = fmt.Errorf("server: compact rename: %w", err)
		reopened, rerr := wal.OpenAppend(path)
		if rerr != nil {
			return fmt.Errorf("%w (reopen after failed rename: %v)", err, rerr)
		}
		s.log = reopened
		return err
	}
	fresh, err := wal.OpenAppend(path)
	if err != nil {
		// The rename landed, so path holds the complete snapshot; only
		// the reopen failed. Surface it — mutations will keep failing
		// until a Compact retry succeeds, but no state is lost.
		return err
	}
	s.log = fresh
	return nil
}

// Close syncs and closes the log. It is a no-op with no log.
func (s *Server) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.log == nil {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}
