package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casper"
)

// TestDebugEndpointsUnderConcurrentLoad scrapes every observability
// endpoint — /metrics (whose gauges read live registries), the trace
// ring, and /debug/stats (the operator snapshot, privacy observatory
// included) — while workers drive mixed
// register/update/query load through an in-process Casper. Run with
// -race this is the torn-read check for the whole telemetry plane:
// every scrape walks state the hot path is mutating concurrently.
func TestDebugEndpointsUnderConcurrentLoad(t *testing.T) {
	c := casper.MustNew(casper.DefaultConfig())
	defer c.Close()
	addr, stop, err := startDebugServer("127.0.0.1:0", c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr.String()

	objs := make([]casper.PublicObject, 50)
	for i := range objs {
		objs[i] = casper.PublicObject{
			ID:   int64(i + 1),
			Pos:  casper.Pt(float64(i%10)*4000+1000, float64(i/10)*4000+1000),
			Name: fmt.Sprintf("poi-%d", i),
		}
	}
	if err := c.LoadPublicObjects(objs); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var registered [workers][100]bool
	var stopLoad atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stopLoad.Load(); i++ {
				uid := casper.UserID(w*1000 + i%100)
				pos := casper.Pt(rng.Float64()*40000, rng.Float64()*40000)
				if i < 100 {
					// Early registrations can race the population they
					// need to satisfy k > 1; those are expected to fail.
					err := c.RegisterUser(uid, pos, casper.Profile{K: 1 + rng.Intn(8)})
					if err != nil && !strings.Contains(err.Error(), "unsatisfiable") {
						t.Errorf("register %d: %v", uid, err)
						return
					}
					if err != nil {
						registered[w][i] = false
					} else {
						registered[w][i] = true
					}
					continue
				}
				if !registered[w][i%100] {
					continue
				}
				if err := c.UpdateUser(uid, pos); err != nil {
					t.Errorf("update %d: %v", uid, err)
					return
				}
				if i%7 == 0 {
					if _, err := c.NearestPublic(uid); err != nil {
						t.Errorf("nn %d: %v", uid, err)
						return
					}
				}
			}
		}(w)
	}

	endpoints := []string{"/metrics", "/debug/traces", "/debug/stats"}
	var scrapeWG sync.WaitGroup
	for _, ep := range endpoints {
		scrapeWG.Add(1)
		go func(ep string) {
			defer scrapeWG.Done()
			deadline := time.Now().Add(500 * time.Millisecond)
			for time.Now().Before(deadline) {
				resp, err := http.Get(base + ep)
				if err != nil {
					t.Errorf("GET %s: %v", ep, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %s", ep, resp.Status)
					return
				}
				if len(body) == 0 {
					t.Errorf("GET %s: empty body", ep)
					return
				}
			}
		}(ep)
	}
	scrapeWG.Wait()
	stopLoad.Store(true)
	wg.Wait()
}
