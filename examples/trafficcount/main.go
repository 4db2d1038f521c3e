// Traffic count: public queries over private data (Sec. 5 of the
// paper — "how many cars in a certain area?").
//
// A traffic administrator monitors district occupancy. The server
// holds only cloaked regions, so counts are estimates; the example
// compares the three counting policies (any-overlap, center-in,
// fractional) against the ground truth that only the anonymizer could
// know, showing that the fractional policy — justified by the uniform
// location distribution the anonymizer guarantees (Sec. 4.3) — tracks
// the truth closely without anyone revealing a position.
//
// Run with:
//
//	go run ./examples/trafficcount
package main

import (
	"fmt"
	"log"
	"math/rand"

	"casper"
)

const numCars = 3000

func main() {
	rng := rand.New(rand.NewSource(31))
	cfg := casper.DefaultConfig()
	c := casper.MustNew(cfg)

	net := casper.SyntheticHennepin(9)
	gen := casper.NewMovingObjects(net, numCars, 10)
	truth := make(map[casper.UserID]casper.Point, numCars)
	for i, u := range gen.Positions() {
		k := 1 + rng.Intn(min(30, i+1))
		if err := c.RegisterUser(casper.UserID(u.ID), u.Pos, casper.Profile{K: k}); err != nil {
			log.Fatalf("register: %v", err)
		}
		truth[casper.UserID(u.ID)] = u.Pos
	}

	// Quarter the county into four districts.
	u := cfg.Universe
	cx, cy := u.Center().X, u.Center().Y
	districts := []struct {
		name string
		rect casper.Rect
	}{
		{"southwest", casper.R(u.Min.X, u.Min.Y, cx, cy)},
		{"southeast", casper.R(cx, u.Min.Y, u.Max.X, cy)},
		{"northwest", casper.R(u.Min.X, cy, cx, u.Max.Y)},
		{"northeast", casper.R(cx, cy, u.Max.X, u.Max.Y)},
	}

	fmt.Printf("traffic monitoring over %d cars (server sees only cloaks)\n\n", numCars)
	fmt.Printf("%-10s  %7s  %12s  %10s  %11s\n",
		"district", "truth", "any-overlap", "center-in", "fractional")
	for _, d := range districts {
		exact := 0
		for _, pos := range truth {
			if d.rect.Contains(pos) {
				exact++
			}
		}
		anyC, err := c.CountUsersIn(d.rect, casper.CountAnyOverlap)
		if err != nil {
			log.Fatal(err)
		}
		ctr, _ := c.CountUsersIn(d.rect, casper.CountCenterIn)
		frac, _ := c.CountUsersIn(d.rect, casper.CountFractional)
		fmt.Printf("%-10s  %7d  %12.0f  %10.0f  %11.1f\n", d.name, exact, anyC, ctr, frac)
	}

	fmt.Println("\nnotes:")
	fmt.Println("  any-overlap over-counts (a cloak can straddle districts)")
	fmt.Println("  fractional is the expected count under the anonymizer's uniformity guarantee")

	// A rush-hour step: cars move, counts refresh.
	for _, up := range gen.Step(300) {
		if err := c.UpdateUser(casper.UserID(up.ID), up.Pos); err != nil {
			log.Fatal(err)
		}
		truth[casper.UserID(up.ID)] = up.Pos
	}
	fmt.Println("\nafter 5 minutes of movement (fractional vs truth):")
	for _, d := range districts {
		exact := 0
		for _, pos := range truth {
			if d.rect.Contains(pos) {
				exact++
			}
		}
		frac, _ := c.CountUsersIn(d.rect, casper.CountFractional)
		fmt.Printf("  %-10s truth %5d  estimate %7.1f  (error %+.1f%%)\n",
			d.name, exact, frac, 100*(frac-float64(exact))/float64(max(exact, 1)))
	}
}
