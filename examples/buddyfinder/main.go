// Buddy finder: private queries over private data (Sec. 5.2 of the
// paper).
//
// Every participant is private: the asker's location is cloaked AND
// the buddies' locations are stored only as cloaked regions. The
// server matches cloaks against cloaks using the pessimistic
// furthest-corner distance and still returns an inclusive candidate
// list; the asker's phone refines it locally.
//
// Run with:
//
//	go run ./examples/buddyfinder
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"casper"
)

const numBuddies = 500

func main() {
	rng := rand.New(rand.NewSource(21))
	cfg := casper.DefaultConfig()
	cfg.Universe = casper.R(0, 0, 20000, 20000)
	cfg.PyramidLevels = 8
	c := casper.MustNew(cfg)

	// A buddy network: everyone is both a potential asker and a
	// potential answer, all with individual privacy profiles.
	net := casper.SyntheticHennepin(13)
	gen := casper.NewMovingObjects(net, numBuddies, 17)
	for i, u := range gen.Positions() {
		// Scale positions from the 40 km network into our 20 km town.
		pos := casper.Pt(u.Pos.X/2, u.Pos.Y/2)
		k := 1 + rng.Intn(min(20, i+1))
		if err := c.RegisterUser(casper.UserID(u.ID), pos, casper.Profile{K: k}); err != nil {
			log.Fatalf("register: %v", err)
		}
	}
	fmt.Printf("buddy network of %d cloaked users\n\n", numBuddies)

	// Three rounds of movement; after each, a few users look for their
	// nearest buddy.
	for round := 1; round <= 3; round++ {
		for _, u := range gen.Step(120) {
			pos := casper.Pt(u.Pos.X/2, u.Pos.Y/2)
			if err := c.UpdateUser(casper.UserID(u.ID), pos); err != nil {
				log.Fatalf("update: %v", err)
			}
		}
		fmt.Printf("round %d (after 2 min of movement):\n", round)
		for q := 0; q < 3; q++ {
			uid := casper.UserID(rng.Intn(numBuddies))
			ans, err := c.NearestBuddy(uid)
			if err != nil {
				log.Fatalf("buddy query: %v", err)
			}
			// The answer is itself a cloaked region: Casper never
			// reveals the buddy's exact spot either.
			fmt.Printf("  user %3d: %3d candidate cloaks -> nearest buddy is somewhere in %v\n",
				uid, len(ans.Candidates), ans.Exact.Rect)
			fmt.Printf("            (no more than %.0fm away, wherever both really are)\n",
				maxPossibleDist(ans))
		}
	}
}

// maxPossibleDist bounds the true distance: the asker is somewhere in
// her cloak, the buddy somewhere in theirs.
func maxPossibleDist(ans casper.NNAnswer) float64 {
	q, b := ans.CloakedQuery, ans.Exact.Rect
	dx := maxf(b.Max.X-q.Min.X, q.Max.X-b.Min.X)
	dy := maxf(b.Max.Y-q.Min.Y, q.Max.Y-b.Min.Y)
	if dx < 0 {
		dx = 0
	}
	if dy < 0 {
		dy = 0
	}
	return math.Hypot(dx, dy)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
