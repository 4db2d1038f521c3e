package server

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"casper/internal/geom"
	"casper/internal/privacyqp"
	"casper/internal/wal"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "server.wal")
}

func TestPersistentSurvivesRestart(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddPublic(PublicObject{ID: 1, Pos: geom.Pt(10, 20), Name: "cafe"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddPublic(PublicObject{ID: 2, Pos: geom.Pt(30, 40), Name: "gas"}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 100, Region: geom.R(0, 0, 50, 50)}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 101, Region: geom.R(60, 60, 90, 90)}); err != nil {
		t.Fatal(err)
	}
	// Mutations after the initial ones.
	if err := p.RemovePublic(2); err != nil {
		t.Fatal(err)
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 100, Region: geom.R(200, 200, 260, 260)}); err != nil {
		t.Fatal(err)
	}
	if err := p.RemovePrivate(101); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart.
	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PublicCount() != 1 || q.PrivateCount() != 1 {
		t.Fatalf("recovered public=%d private=%d", q.PublicCount(), q.PrivateCount())
	}
	o, ok := q.GetPublic(1)
	if !ok || o.Name != "cafe" || o.Pos != geom.Pt(10, 20) {
		t.Fatalf("recovered public = %+v, %v", o, ok)
	}
	pr, ok := q.GetPrivate(100)
	if !ok || pr.Region != geom.R(200, 200, 260, 260) {
		t.Fatalf("recovered private = %+v, %v", pr, ok)
	}
	if _, ok := q.GetPrivate(101); ok {
		t.Fatal("removed private object resurrected")
	}
	// Queries work on the recovered state.
	res, err := q.NNPublic(geom.R(0, 0, 100, 100), privacyqp.DefaultOptions())
	if err != nil || len(res.Candidates) != 1 {
		t.Fatalf("query on recovered server: %v, %d candidates", err, len(res.Candidates))
	}
}

func TestPersistentCrashMidWrite(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		if err := p.UpsertPrivate(PrivateObject{ID: int64(i), Region: geom.R(x, y, x+10, y+10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Torn bytes at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x44, 0x00, 0x00})
	f.Close()

	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PrivateCount() != 200 {
		t.Fatalf("recovered %d objects, want 200", q.PrivateCount())
	}
	// The recovered log accepts appends and they survive another
	// restart.
	if err := q.UpsertPrivate(PrivateObject{ID: 999, Region: geom.R(1, 1, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.PrivateCount() != 201 {
		t.Fatalf("after second restart: %d", r.PrivateCount())
	}
}

func TestPersistentCompactShrinksLog(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	// Many updates to the same few objects bloat the log.
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 1000; round++ {
		id := int64(rng.Intn(10))
		x, y := rng.Float64()*900, rng.Float64()*900
		if err := p.UpsertPrivate(PrivateObject{ID: id, Region: geom.R(x, y, x+5, y+5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size()/10 {
		t.Fatalf("compact barely helped: %d -> %d bytes", before.Size(), after.Size())
	}
	// State intact and log still appendable.
	if p.PrivateCount() != 10 {
		t.Fatalf("state after compact: %d", p.PrivateCount())
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 500, Region: geom.R(1, 1, 2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PrivateCount() != 11 {
		t.Fatalf("after compact+restart: %d", q.PrivateCount())
	}
}

// TestPersistentCompactFailureKeepsLog injects a snapshot failure —
// a directory squatting on the temp path, which defeats wal.Create
// even when the test runs as root (permission bits would not) — and
// checks the invariant the swap logic promises: after a failed
// Compact the live log is still open, still appendable, and nothing
// logged before or after the failure is lost across a restart.
func TestPersistentCompactFailureKeepsLog(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f := float64(i)
		if err := p.UpsertPrivate(PrivateObject{ID: int64(i), Region: geom.R(f, f, f+5, f+5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	block := path + ".compact"
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err == nil {
		t.Fatal("Compact succeeded with the temp path blocked")
	}
	// The failed compaction must leave the log handle usable: both an
	// append and a durable flush on the old log.
	if err := p.UpsertPrivate(PrivateObject{ID: 999, Region: geom.R(1, 1, 2, 2)}); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("sync after failed compact: %v", err)
	}

	// Unblock; a retry compacts and the handle swap works.
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatalf("Compact retry: %v", err)
	}
	if _, err := os.Stat(block); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after compact: %v", err)
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 1000, Region: geom.R(3, 3, 4, 4)}); err != nil {
		t.Fatalf("append after compact retry: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PrivateCount() != 22 {
		t.Fatalf("recovered %d objects, want 22", q.PrivateCount())
	}
}

// liveState copies both id → object tables, the state a log replay must
// rebuild.
func liveState(s *Server) (map[int64]PublicObject, map[int64]PrivateObject) {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return maps.Clone(s.pubIdx), maps.Clone(s.privIdx)
}

// requireRecovers closes p, reopens its log and requires the recovered
// tables to equal the ones live at close. It returns the reopened
// server.
func requireRecovers(t *testing.T, p *Server, path string) *Server {
	t.Helper()
	wantPub, wantPriv := liveState(p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	gotPub, gotPriv := liveState(q)
	if !reflect.DeepEqual(gotPub, wantPub) {
		t.Fatalf("recovered public table %v, live was %v", gotPub, wantPub)
	}
	if !reflect.DeepEqual(gotPriv, wantPriv) {
		t.Fatalf("recovered private table %v, live was %v", gotPriv, wantPriv)
	}
	if q.PublicCount() != len(wantPub) || q.PrivateCount() != len(wantPriv) {
		t.Fatalf("recovered trees hold %d public, %d private; want %d, %d",
			q.PublicCount(), q.PrivateCount(), len(wantPub), len(wantPriv))
	}
	return q
}

// TestRejectedWritesNeverReachTheLog: a write the server refuses is not
// logged, so a restart recovers exactly the state that was live.
func TestRejectedWritesNeverReachTheLog(t *testing.T) {
	t.Run("duplicate_add", func(t *testing.T) {
		path := tmpWAL(t)
		p, err := OpenPersistent(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddPublic(PublicObject{ID: 1, Pos: geom.Pt(1, 1), Name: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := p.AddPublic(PublicObject{ID: 1, Pos: geom.Pt(9, 9), Name: "b"}); !errors.Is(err, ErrDuplicateObject) {
			t.Fatalf("duplicate add: err = %v, want ErrDuplicateObject", err)
		}
		if err := p.RemovePublic(7); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("remove of unknown public: err = %v, want ErrUnknownObject", err)
		}
		if err := p.RemovePrivate(7); !errors.Is(err, ErrUnknownObject) {
			t.Fatalf("remove of unknown private: err = %v, want ErrUnknownObject", err)
		}
		q := requireRecovers(t, p, path)
		if o, _ := q.GetPublic(1); o != (PublicObject{ID: 1, Pos: geom.Pt(1, 1), Name: "a"}) {
			t.Fatalf("recovered public 1 = %+v", o)
		}
	})
	t.Run("inverted_region", func(t *testing.T) {
		path := tmpWAL(t)
		p, err := OpenPersistent(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.UpsertPrivate(PrivateObject{ID: 1, Region: geom.R(0, 0, 2, 2)}); err != nil {
			t.Fatal(err)
		}
		inverted := geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(1, 1)}
		if err := p.UpsertPrivate(PrivateObject{ID: 2, Region: inverted}); err == nil {
			t.Fatal("inverted region accepted")
		}
		q := requireRecovers(t, p, path)
		if _, ok := q.GetPrivate(2); ok {
			t.Fatal("refused cloak 2 recovered")
		}
	})
	t.Run("nan_region", func(t *testing.T) {
		path := tmpWAL(t)
		p, err := OpenPersistent(path)
		if err != nil {
			t.Fatal(err)
		}
		nan := geom.Rect{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(1, 1)}
		if err := p.UpsertPrivate(PrivateObject{ID: 1, Region: nan}); err == nil {
			t.Fatal("NaN region accepted")
		}
		if err := p.UpsertPrivate(PrivateObject{ID: 2, Region: geom.R(0, 0, 2, 2)}); err != nil {
			t.Fatal(err)
		}
		requireRecovers(t, p, path)
	})
}

// TestReplaySkipsRecordsTheServerRefuses: a log written before writes
// were validated ahead of the append can hold records the server
// refused. It still opens, and replay recovers what was live.
func TestReplaySkipsRecordsTheServerRefuses(t *testing.T) {
	path := tmpWAL(t)
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wal.Record{
		{Type: wal.PublicAdd, ID: 1, X0: 1, Y0: 1, Name: "a"},
		{Type: wal.PublicAdd, ID: 1, X0: 9, Y0: 9, Name: "b"},                 // duplicate
		{Type: wal.PublicRemove, ID: 7},                                       // unknown
		{Type: wal.PrivateUpsert, ID: 1, X0: 5, Y0: 5, X1: 1, Y1: 1},          // inverted
		{Type: wal.PrivateUpsert, ID: 2, X0: math.NaN(), Y0: 0, X1: 1, Y1: 1}, // NaN
		{Type: wal.PrivateUpsertBatch, Batch: []wal.BatchEntry{
			{ID: 3, X0: 0, Y0: 0, X1: 1, Y1: 1},
			{ID: 4, X0: 2, Y0: 2, X1: 0, Y1: 0}, // inverted: the batch was refused whole
		}},
		{Type: wal.PrivateUpsert, ID: 5, X0: 0, Y0: 0, X1: 2, Y1: 2},
		{Type: wal.PrivateRemove, ID: 6}, // unknown
	} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pub, priv := liveState(s)
	wantPub := map[int64]PublicObject{1: {ID: 1, Pos: geom.Pt(1, 1), Name: "a"}}
	wantPriv := map[int64]PrivateObject{5: {ID: 5, Region: geom.R(0, 0, 2, 2)}}
	if !reflect.DeepEqual(pub, wantPub) || !reflect.DeepEqual(priv, wantPriv) {
		t.Fatalf("recovered %v / %v, want %v / %v", pub, priv, wantPub, wantPriv)
	}
}

// TestCompactedLogReplaysInBatches: compaction writes the cloaks as
// PrivateUpsertBatch records, so reopening a compacted log publishes
// one private snapshot per wal.MaxBatchEntries cloaks, not one per
// cloak.
func TestCompactedLogReplaysInBatches(t *testing.T) {
	const n = 10000
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	objs := make([]PrivateObject, n)
	for i := range objs {
		x, y := rng.Float64()*900, rng.Float64()*900
		objs[i] = PrivateObject{ID: int64(i), Region: geom.R(x, y, x+5, y+5)}
	}
	if err := p.UpsertPrivateBatch(objs); err != nil {
		t.Fatal(err)
	}
	if err := p.AddPublic(PublicObject{ID: 1, Pos: geom.Pt(3, 4), Name: "poi"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	q := requireRecovers(t, p, path)
	want := int64((n + wal.MaxBatchEntries - 1) / wal.MaxBatchEntries)
	if got := q.snap.Load().privVersion; got != want {
		t.Fatalf("replay published %d private snapshots, want %d", got, want)
	}
}

func TestPersistentLoadPublicCompacts(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]PublicObject, 50)
	for i := range objs {
		objs[i] = PublicObject{ID: int64(i), Pos: geom.Pt(float64(i), float64(i)), Name: "poi"}
	}
	if err := p.LoadPublic(objs); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PublicCount() != 50 {
		t.Fatalf("recovered %d public objects", q.PublicCount())
	}
}

// BenchmarkOpenPersistentUncompacted replays a log of 20,000
// single-entry upsert records, the log a server that stores cloaks one
// by one leaves between compactions. Replay publishes one private
// snapshot per record, so its cost is what each clone-and-publish
// costs, 20,000 times over a growing tree.
func BenchmarkOpenPersistentUncompacted(b *testing.B) {
	const n = 20000
	path := filepath.Join(b.TempDir(), "server.wal")
	log, err := wal.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		obj := PrivateObject{ID: int64(i), Region: geom.R(x, y, x+1+rng.Float64()*60, y+1+rng.Float64()*60)}
		if err := log.Append(privateUpsertRecords([]PrivateObject{obj})[0]); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenPersistent(path)
		if err != nil {
			b.Fatal(err)
		}
		if s.PrivateCount() != n {
			b.Fatalf("recovered %d cloaks, want %d", s.PrivateCount(), n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
