package server

import (
	"path/filepath"
	"testing"

	"casper/internal/geom"
	"casper/internal/wal"
)

// TestPersistentBatchReplay interleaves batched private upserts with
// old-format scalar records through the Persistent API and verifies a
// reopened server rebuilds the exact state — the upgraded-deployment
// mixed-log case.
func TestPersistentBatchReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddPublic(PublicObject{ID: 1, Pos: geom.Pt(10, 10), Name: "gas"}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpsertPrivate(PrivateObject{ID: 100, Region: geom.R(0, 0, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	// First batch: refresh 100 and introduce 101-103.
	batch1 := []PrivateObject{
		{ID: 100, Region: geom.R(1, 1, 5, 5)},
		{ID: 101, Region: geom.R(2, 2, 6, 6)},
		{ID: 102, Region: geom.R(3, 3, 7, 7)},
		{ID: 103, Region: geom.R(4, 4, 8, 8)},
	}
	if err := p.UpsertPrivateBatch(batch1); err != nil {
		t.Fatal(err)
	}
	// Old-format records after the batch.
	if err := p.RemovePrivate(102); err != nil {
		t.Fatal(err)
	}
	if err := p.AddPublic(PublicObject{ID: 2, Pos: geom.Pt(20, 20), Name: "food"}); err != nil {
		t.Fatal(err)
	}
	// Second batch after the scalar records.
	if err := p.UpsertPrivateBatch([]PrivateObject{
		{ID: 101, Region: geom.R(9, 9, 12, 12)},
		{ID: 104, Region: geom.R(5, 5, 9, 9)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.PublicCount(); got != 2 {
		t.Fatalf("public count after replay = %d, want 2", got)
	}
	wantPriv := map[int64]geom.Rect{
		100: geom.R(1, 1, 5, 5),
		101: geom.R(9, 9, 12, 12),
		103: geom.R(4, 4, 8, 8),
		104: geom.R(5, 5, 9, 9),
	}
	if got := re.PrivateCount(); got != len(wantPriv) {
		t.Fatalf("private count after replay = %d, want %d", got, len(wantPriv))
	}
	for id, want := range wantPriv {
		o, ok := re.GetPrivate(id)
		if !ok || o.Region != want {
			t.Fatalf("private %d after replay = %+v, %v; want region %v", id, o, ok, want)
		}
	}
	if _, ok := re.GetPrivate(102); ok {
		t.Fatal("private 102 survived replay despite removal")
	}
}

// TestUpsertPrivateBatchValidation: one invalid region rejects the
// whole batch before any entry is applied or logged, so the reopened
// server holds nothing either.
func TestUpsertPrivateBatchValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "val.wal")
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []PrivateObject{
		{ID: 1, Region: geom.R(0, 0, 2, 2)},
		{ID: 2, Region: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(1, 1)}}, // inverted
	}
	if err := p.UpsertPrivateBatch(bad); err == nil {
		t.Fatal("invalid region accepted")
	}
	if got := p.PrivateCount(); got != 0 {
		t.Fatalf("partial batch applied: %d entries", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.PrivateCount(); got != 0 {
		t.Fatalf("rejected batch reached the log: %d entries after replay", got)
	}
}

// TestBatchChunking: a batch larger than wal.MaxBatchEntries is split
// across records but still fully applied and replayable.
func TestBatchChunking(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunk.wal")
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	n := wal.MaxBatchEntries + 10
	objs := make([]PrivateObject, n)
	for i := range objs {
		f := float64(i)
		objs[i] = PrivateObject{ID: int64(i + 1), Region: geom.R(f, f, f+1, f+1)}
	}
	if err := p.UpsertPrivateBatch(objs); err != nil {
		t.Fatal(err)
	}
	if got := p.PrivateCount(); got != n {
		t.Fatalf("applied %d entries, want %d", got, n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.PrivateCount(); got != n {
		t.Fatalf("replayed %d entries, want %d", got, n)
	}
}
