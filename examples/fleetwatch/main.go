// Fleet watch: continuous queries over the moving, cloaked population.
//
// A dispatcher keeps two standing queries open while a fleet moves on
// the road network: a continuous count of vehicles downtown, and a
// continuous nearest-buddy watch for one driver. The monitor processes
// every location update incrementally — most updates touch no standing
// query at all — and pushes events only when an answer actually
// changes. This is the continuous-query integration the paper defers
// to a SINA-style processor (Sec. 5).
//
// Run with:
//
//	go run ./examples/fleetwatch
package main

import (
	"fmt"
	"log"
	"math/rand"

	"casper"
)

const fleetSize = 800

func main() {
	rng := rand.New(rand.NewSource(41))
	cfg := casper.DefaultConfig()
	c := casper.MustNew(cfg)

	net := casper.SyntheticHennepin(19)
	gen := casper.NewMovingObjects(net, fleetSize, 23)
	for i, u := range gen.Positions() {
		k := 1 + rng.Intn(min(15, i+1))
		if err := c.RegisterUser(casper.UserID(u.ID), u.Pos, casper.Profile{K: k}); err != nil {
			log.Fatalf("register: %v", err)
		}
	}

	countEvents, buddyEvents := 0, 0
	mon := c.EnableContinuous(func(e casper.ContinuousEvent) {
		switch e.Kind {
		case casper.CountChanged:
			countEvents++
		case casper.CandidatesChanged:
			buddyEvents++
		}
	})

	// Standing query 1: vehicles downtown (center 10 km square).
	u := cfg.Universe
	cx, cy := u.Center().X, u.Center().Y
	downtown := casper.R(cx-5000, cy-5000, cx+5000, cy+5000)
	qid, count, err := mon.RegisterRangeCount(downtown, casper.CountFractional)
	if err != nil {
		log.Fatalf("register count: %v", err)
	}
	fmt.Printf("dispatcher: ~%.0f of %d vehicles downtown at start\n", count, fleetSize)

	// Standing query 2: driver 3's nearest buddy.
	_, cands, err := c.WatchNearest(3, casper.PrivateData)
	if err != nil {
		log.Fatalf("watch: %v", err)
	}
	fmt.Printf("driver 3: %d initial buddy candidates\n\n", len(cands))

	// Ten minutes of traffic in 1-minute ticks.
	for minute := 1; minute <= 10; minute++ {
		for _, up := range gen.Step(60) {
			if err := c.UpdateUser(casper.UserID(up.ID), up.Pos); err != nil {
				log.Fatalf("update: %v", err)
			}
		}
		n, _ := mon.Count(qid)
		fmt.Printf("t=%2dmin  downtown ~%.1f vehicles  (events so far: %d count, %d buddy)\n",
			minute, n, countEvents, buddyEvents)
	}

	fmt.Printf("\nincremental processing: %d updates caused only %d query evaluations\n",
		mon.Updates(), mon.Evaluations())
}
