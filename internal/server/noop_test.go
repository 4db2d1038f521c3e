package server

import (
	"os"
	"testing"
	"time"

	"casper/internal/geom"
)

// walSize syncs p's log and returns its size in bytes.
func walSize(t *testing.T, p *Server, path string) int64 {
	t.Helper()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestUnchangedUpsertIsNoOp: re-upserting the cloak already stored for
// an ID, alone or in a batch, appends nothing to the log, publishes no
// snapshot, does not mark the snapshot stale, and reopens to the same
// private table.
func TestUnchangedUpsertIsNoOp(t *testing.T) {
	path := tmpWAL(t)
	p, err := OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := geom.R(0, 0, 10, 10), geom.R(20, 20, 30, 30)
	if err := p.UpsertPrivateBatch([]PrivateObject{{ID: 1, Region: r0}, {ID: 2, Region: r1}}); err != nil {
		t.Fatal(err)
	}
	size, version := walSize(t, p, path), p.snap.Load().privVersion
	time.Sleep(60 * time.Millisecond)
	for _, objs := range [][]PrivateObject{
		{{ID: 1, Region: r0}},
		{{ID: 2, Region: r1}, {ID: 1, Region: r0}},
		{{ID: 1, Region: r0}, {ID: 1, Region: r0}},
	} {
		if err := p.UpsertPrivateBatch(objs); err != nil {
			t.Fatal(err)
		}
	}
	if got := walSize(t, p, path); got != size {
		t.Errorf("unchanged upserts grew the log from %d to %d bytes", size, got)
	}
	if got := p.snap.Load().privVersion; got != version {
		t.Errorf("unchanged upserts published: privVersion %d -> %d", version, got)
	}
	if stale, age := p.SnapshotStale(20 * time.Millisecond); stale {
		t.Errorf("SnapshotStale after unchanged upserts only = true (age %v), want false", age)
	}

	// A batch mixing an unchanged entry with a changed one applies the
	// changed one.
	r2 := geom.R(40, 40, 50, 50)
	if err := p.UpsertPrivateBatch([]PrivateObject{{ID: 1, Region: r0}, {ID: 2, Region: r2}}); err != nil {
		t.Fatal(err)
	}
	if got := p.snap.Load().privVersion; got != version+1 {
		t.Errorf("a batch with one change published %d snapshots, want 1", got-version)
	}
	if o, _ := p.GetPrivate(2); o.Region != r2 {
		t.Errorf("private 2 = %v, want %v", o.Region, r2)
	}
	for _, it := range p.PrivateItems() {
		if want := map[int64]geom.Rect{1: r0, 2: r2}[it.ID]; it.Rect != want {
			t.Errorf("the private tree holds %d at %v, want %v", it.ID, it.Rect, want)
		}
	}
	requireRecovers(t, p, path)
}

// TestBatchLastRegionWins: over a stored r0, the batches [A→r1, A→r0]
// and [A→r0, A→r1] each leave A at its last region, live and after a
// reopen. Comparing each entry with the stored region alone would drop
// the final r0 of the first and leave A at r1.
func TestBatchLastRegionWins(t *testing.T) {
	r0, r1 := geom.R(0, 0, 10, 10), geom.R(5, 5, 15, 15)
	for _, tc := range []struct {
		name  string
		batch []geom.Rect
	}{
		{"away-and-back", []geom.Rect{r1, r0}},
		{"stay-then-away", []geom.Rect{r0, r1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpWAL(t)
			p, err := OpenPersistent(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.UpsertPrivate(PrivateObject{ID: 7, Region: r0}); err != nil {
				t.Fatal(err)
			}
			objs := make([]PrivateObject, len(tc.batch))
			for i, r := range tc.batch {
				objs[i] = PrivateObject{ID: 7, Region: r}
			}
			if err := p.UpsertPrivateBatch(objs); err != nil {
				t.Fatal(err)
			}
			want := tc.batch[len(tc.batch)-1]
			check := func(s *Server, when string) {
				t.Helper()
				if o, ok := s.GetPrivate(7); !ok || o.Region != want {
					t.Errorf("%s: private 7 = %v, %v; want %v", when, o.Region, ok, want)
				}
				items := s.PrivateItems()
				if len(items) != 1 || items[0].Rect != want {
					t.Errorf("%s: private tree holds %v, want one cloak at %v", when, items, want)
				}
			}
			check(p, "live")
			check(requireRecovers(t, p, path), "reopened")
		})
	}
}
