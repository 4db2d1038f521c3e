// Command casper-replay drives a Casper deployment from a recorded
// moving-object trace (see cmd/casper-gen): arrivals register,
// position reports update, departures deregister, and a configurable
// fraction of updates is followed by a nearest-neighbor query. It
// reports throughput and query statistics.
//
// By default the deployment runs in-process (a self-contained load
// test); with -addr the trace is replayed against a running casperd
// over TCP.
//
// Usage:
//
//	casper-gen -objects 2000 -steps 10 -o trace.txt
//	casper-replay -trace trace.txt [-addr host:port] [-qps 0.05]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"casper"
	"casper/internal/mobgen"
	"casper/internal/protocol"
)

// driver abstracts the two replay targets (in-process, TCP).
type driver interface {
	register(uid int64, x, y float64, k int) error
	update(uid int64, x, y float64) error
	// updateBatch applies many updates through the deployment's batched
	// path (one frame over TCP, one server write lock in-process) and
	// returns how many were applied.
	updateBatch(updates []casper.UserUpdate) (int, error)
	deregister(uid int64) error
	query(uid int64) (candidates int, err error)
}

// batcher buffers location updates and flushes them through
// driver.updateBatch. Anything that must observe the updates' effects
// (queries, deregisters, the final report) flushes first, so replay
// semantics match the unbatched run — only the grouping changes.
type batcher struct {
	d    driver
	size int
	buf  []casper.UserUpdate
}

func (b *batcher) add(uid int64, x, y float64) error {
	if b.size <= 1 {
		return b.d.update(uid, x, y)
	}
	b.buf = append(b.buf, casper.UserUpdate{UID: casper.UserID(uid), Pos: casper.Pt(x, y)})
	if len(b.buf) >= b.size {
		return b.flush()
	}
	return nil
}

func (b *batcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	n, err := b.d.updateBatch(b.buf)
	if err != nil {
		return fmt.Errorf("batch (applied %d of %d): %w", n, len(b.buf), err)
	}
	b.buf = b.buf[:0]
	return nil
}

func main() {
	tracePath := flag.String("trace", "", "trace file from casper-gen (required)")
	addr := flag.String("addr", "", "replay against casperd at this address (default: in-process)")
	extent := flag.Float64("extent", 40000, "universe side for the in-process deployment")
	targets := flag.Int("targets", 5000, "public targets for the in-process deployment")
	qps := flag.Float64("qps", 0.02, "probability that an update is followed by an NN query")
	maxK := flag.Int("maxk", 20, "privacy profiles drawn from [1, maxk]")
	seed := flag.Int64("seed", 1, "profile/query sampling seed")
	batch := flag.Int("batch", 1, "group location updates into update_batch frames of this size (1 = unbatched)")
	flag.Parse()

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "casper-replay: -trace is required")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		log.Fatalf("casper-replay: %v", err)
	}
	defer f.Close()

	var d driver
	if *addr != "" {
		cl, err := casper.DialProtocolContext(context.Background(), *addr)
		if err != nil {
			log.Fatalf("casper-replay: %v", err)
		}
		defer cl.Close()
		d = &tcpDriver{cl: cl}
	} else {
		cfg := casper.DefaultConfig()
		cfg.Universe = casper.R(0, 0, *extent, *extent)
		c := casper.MustNew(cfg)
		if err := c.LoadPublicObjects(casper.UniformTargets(cfg.Universe, *targets, *seed)); err != nil {
			log.Fatalf("casper-replay: load targets: %v", err)
		}
		d = &inprocDriver{c: c}
	}

	rng := rand.New(rand.NewSource(*seed))
	live := map[int64]bool{}
	b := &batcher{d: d, size: *batch}
	var registers, updates, deregisters, queries, queryErrs, candSum int
	start := time.Now()

	err = mobgen.ReadTrace(f, func(e mobgen.TraceEvent) error {
		switch e.Kind {
		case 'U', 'A':
			if !live[e.ID] {
				k := 1 + rng.Intn(min(*maxK, len(live)+1))
				if err := d.register(e.ID, e.X, e.Y, k); err != nil {
					return fmt.Errorf("register %d: %w", e.ID, err)
				}
				live[e.ID] = true
				registers++
				return nil
			}
			if err := b.add(e.ID, e.X, e.Y); err != nil {
				return fmt.Errorf("update %d: %w", e.ID, err)
			}
			updates++
			if rng.Float64() < *qps {
				if err := b.flush(); err != nil {
					return err
				}
				queries++
				if n, err := d.query(e.ID); err != nil {
					queryErrs++
				} else {
					candSum += n
				}
			}
		case 'D':
			if live[e.ID] {
				if err := b.flush(); err != nil {
					return err
				}
				if err := d.deregister(e.ID); err != nil {
					return fmt.Errorf("deregister %d: %w", e.ID, err)
				}
				delete(live, e.ID)
				deregisters++
			}
		}
		return nil
	})
	if err == nil {
		err = b.flush()
	}
	if err != nil {
		log.Fatalf("casper-replay: %v", err)
	}
	elapsed := time.Since(start)
	ops := registers + updates + deregisters + queries
	fmt.Printf("replayed %d events in %v (%.0f ops/s)\n", ops, elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds())
	fmt.Printf("  registers:   %d\n  updates:     %d\n  deregisters: %d\n", registers, updates, deregisters)
	if queries > 0 {
		fmt.Printf("  queries:     %d (%d failed), avg candidate list %.1f\n",
			queries, queryErrs, float64(candSum)/float64(max(queries-queryErrs, 1)))
	}
	fmt.Printf("  live users at end: %d\n", len(live))
}

type inprocDriver struct{ c *casper.Casper }

func (d *inprocDriver) register(uid int64, x, y float64, k int) error {
	return d.c.RegisterUser(casper.UserID(uid), casper.Pt(x, y), casper.Profile{K: k})
}
func (d *inprocDriver) update(uid int64, x, y float64) error {
	return d.c.UpdateUser(casper.UserID(uid), casper.Pt(x, y))
}
func (d *inprocDriver) updateBatch(updates []casper.UserUpdate) (int, error) {
	return d.c.UpdateUsers(updates)
}
func (d *inprocDriver) deregister(uid int64) error {
	return d.c.DeregisterUser(casper.UserID(uid))
}
func (d *inprocDriver) query(uid int64) (int, error) {
	ans, err := d.c.NearestPublic(casper.UserID(uid))
	if err != nil {
		return 0, err
	}
	return len(ans.Candidates), nil
}

type tcpDriver struct{ cl *protocol.Client }

func (d *tcpDriver) register(uid int64, x, y float64, k int) error {
	return d.cl.Register(context.Background(), uid, x, y, k, 0)
}
func (d *tcpDriver) update(uid int64, x, y float64) error {
	return d.cl.Update(context.Background(), uid, x, y)
}
func (d *tcpDriver) updateBatch(updates []casper.UserUpdate) (int, error) {
	wire := make([]protocol.BatchUpdate, len(updates))
	for i, u := range updates {
		wire[i] = protocol.BatchUpdate{UserID: int64(u.UID), X: u.Pos.X, Y: u.Pos.Y}
	}
	return d.cl.BatchUpdate(context.Background(), wire)
}
func (d *tcpDriver) deregister(uid int64) error {
	return d.cl.Deregister(context.Background(), uid)
}
func (d *tcpDriver) query(uid int64) (int, error) {
	res, err := d.cl.NearestPublic(context.Background(), uid)
	if err != nil {
		return 0, err
	}
	return len(res.Candidates), nil
}
