package pyramid

import (
	"sync"
	"testing"
)

func TestUserTableBasicOps(t *testing.T) {
	tb := NewUserTable[string]()
	if _, ok := tb.Get(7); ok {
		t.Fatal("Get on empty table reported a hit")
	}
	if !tb.Insert(7, "a") {
		t.Fatal("first Insert failed")
	}
	if tb.Insert(7, "b") {
		t.Fatal("duplicate Insert succeeded")
	}
	if v, ok := tb.Get(7); !ok || v != "a" {
		t.Fatalf("Get(7) = %q, %v; want \"a\", true", v, ok)
	}
	tb.Store(7, "c")
	if v, _ := tb.Get(7); v != "c" {
		t.Fatalf("Store did not overwrite: got %q", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if v, ok := tb.Delete(7); !ok || v != "c" {
		t.Fatalf("Delete(7) = %q, %v; want \"c\", true", v, ok)
	}
	if _, ok := tb.Delete(7); ok {
		t.Fatal("second Delete reported a hit")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", tb.Len())
	}
}

func TestUserTableRange(t *testing.T) {
	tb := NewUserTable[int]()
	const n = 200
	for i := int64(0); i < n; i++ {
		tb.Insert(i, int(i)*2)
	}
	seen := map[int64]int{}
	tb.Range(func(k int64, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range visited %d entries, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != int(k)*2 {
			t.Fatalf("Range saw %d → %d, want %d", k, v, k*2)
		}
	}
	// Early termination.
	visits := 0
	tb.Range(func(int64, int) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("Range after false visited %d entries, want 1", visits)
	}
}

// TestUserTableConcurrent exercises the table lock under -race:
// disjoint key ranges per goroutine plus a shared contended range.
func TestUserTableConcurrent(t *testing.T) {
	tb := NewUserTable[int64]()
	const (
		workers = 8
		keys    = 512
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * keys)
			for i := int64(0); i < keys; i++ {
				tb.Insert(base+i, base+i)
				// Shared hot keys: all workers fight over [0, 16).
				tb.Store(i%16, i)
				if v, ok := tb.Get(base + i); !ok || v != base+i {
					t.Errorf("lost write for key %d", base+i)
					return
				}
			}
			for i := int64(0); i < keys; i += 2 {
				tb.Delete(base + i)
			}
		}(w)
	}
	wg.Wait()
	want := workers * keys / 2
	// The 16 hot keys overlap worker ranges; recount exactly.
	got := 0
	tb.Range(func(k int64, _ int64) bool { got++; return true })
	if got < want || got != tb.Len() {
		t.Fatalf("after churn: Range count %d, Len %d, want >= %d and equal", got, tb.Len(), want)
	}
}
