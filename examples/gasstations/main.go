// Gas stations: private queries over public data at city scale
// (Sec. 5.1 of the paper).
//
// A few thousand commuters move on a synthetic county road network;
// each asks for her nearest gas station under her own privacy profile.
// The example contrasts Casper's candidate list with the two naive
// extremes of Fig. 4 (center-NN guessing and shipping the whole
// database) and shows the privacy/service-quality trade-off: stricter
// profiles mean larger candidate lists.
//
// Run with:
//
//	go run ./examples/gasstations
package main

import (
	"fmt"
	"log"
	"math/rand"

	"casper"
)

const (
	numUsers    = 4000
	numStations = 2000
)

func main() {
	rng := rand.New(rand.NewSource(7))
	cfg := casper.DefaultConfig() // 40 km x 40 km, 9-level pyramid
	c := casper.MustNew(cfg)

	// 2000 gas stations, uniformly spread (the paper's target layout).
	if err := c.LoadPublicObjects(casper.UniformTargets(cfg.Universe, numStations, 11)); err != nil {
		log.Fatalf("load stations: %v", err)
	}

	// Commuters move along the synthetic Hennepin-like road network.
	net := casper.SyntheticHennepin(3)
	gen := casper.NewMovingObjects(net, numUsers, 5)
	for i, u := range gen.Positions() {
		k := 1 + rng.Intn(min(50, i+1)) // k <= current population
		prof := casper.Profile{K: k, AMin: cfg.Universe.Area() * 5e-5}
		if err := c.RegisterUser(casper.UserID(u.ID), u.Pos, prof); err != nil {
			log.Fatalf("register %d: %v", u.ID, err)
		}
	}
	fmt.Printf("registered %d commuters, %d gas stations\n\n", numUsers, numStations)

	// One minute of driving, then everyone re-reports a location.
	for _, u := range gen.Step(60) {
		if err := c.UpdateUser(casper.UserID(u.ID), u.Pos); err != nil {
			log.Fatalf("update %d: %v", u.ID, err)
		}
	}

	// Sample queries, grouped by privacy strictness.
	groups := []struct {
		label string
		k     int
	}{
		{"relaxed   (k=2)", 2},
		{"moderate  (k=25)", 25},
		{"strict    (k=150)", 150},
	}
	fmt.Println("privacy vs quality of service (the Sec. 3 trade-off):")
	for _, g := range groups {
		var candSum, queries int
		for i := 0; i < 50; i++ {
			uid := casper.UserID(rng.Intn(numUsers))
			if err := c.SetProfile(uid, casper.Profile{K: g.k}); err != nil {
				log.Fatal(err)
			}
			ans, err := c.NearestPublic(uid)
			if err != nil {
				log.Fatalf("query: %v", err)
			}
			candSum += len(ans.Candidates)
			queries++
		}
		fmt.Printf("  %s -> avg candidate list %5.1f records (of %d stations)\n",
			g.label, float64(candSum)/float64(queries), numStations)
	}

	// Compare against the naive extremes for one user.
	uid := casper.UserID(42)
	ans, err := c.NearestPublic(uid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nuser %d: candidate list %d records -> exact answer station #%d\n",
		uid, len(ans.Candidates), ans.Exact.ID)
	fmt.Printf("  naive ship-all would transmit %d records\n", numStations)
	fmt.Printf("  naive center-guess would transmit 1 record but is wrong for ~3 of 4 users\n")
	fmt.Printf("  end-to-end: cloak %v + query %v + transmit %v\n",
		ans.Cost.Cloak, ans.Cost.Query, ans.Cost.Transmit)
}
