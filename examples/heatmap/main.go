// Heatmap: a privacy-preserving city density map.
//
// The traffic authority renders an ASCII heatmap of where users are —
// computed entirely from cloaked regions, with each cloak's mass
// spread over the cells it overlaps (the expected-count estimator the
// anonymizer's uniformity guarantee justifies). The same map built
// from the true positions is printed beside it: the cloaked map tracks
// the real density pattern without any user revealing a position.
//
// Run with:
//
//	go run ./examples/heatmap
package main

import (
	"fmt"
	"log"
	"math/rand"

	"casper"
)

const (
	numCars = 5000
	gridN   = 24
)

func main() {
	rng := rand.New(rand.NewSource(51))
	cfg := casper.DefaultConfig()
	c := casper.MustNew(cfg)

	net := casper.SyntheticHennepin(29)
	gen := casper.NewMovingObjects(net, numCars, 31)
	gen.Step(300) // spread along the roads
	truth := make([]casper.Point, 0, numCars)
	for i, u := range gen.Positions() {
		k := 1 + rng.Intn(min(25, i+1))
		if err := c.RegisterUser(casper.UserID(u.ID), u.Pos, casper.Profile{K: k}); err != nil {
			log.Fatalf("register: %v", err)
		}
		truth = append(truth, u.Pos)
	}

	cloaked, err := c.UserDensityGrid(gridN)
	if err != nil {
		log.Fatalf("density: %v", err)
	}
	actual := truthGrid(cfg.Universe, truth, gridN)

	fmt.Printf("downtown density, %d cars (left: from cloaks only; right: ground truth)\n\n", numCars)
	printSideBySide(cloaked, actual)

	// Quantify the agreement.
	var err1, mass float64
	for y := 0; y < gridN; y++ {
		for x := 0; x < gridN; x++ {
			d := cloaked[y][x] - actual[y][x]
			if d < 0 {
				d = -d
			}
			err1 += d
			mass += actual[y][x]
		}
	}
	fmt.Printf("\ntotal variation between the maps: %.1f%% of the population\n", 50*err1/mass)
	fmt.Println("(no exact position ever left the anonymizer)")
}

func truthGrid(universe casper.Rect, pts []casper.Point, n int) [][]float64 {
	grid := make([][]float64, n)
	for i := range grid {
		grid[i] = make([]float64, n)
	}
	cw := universe.Width() / float64(n)
	ch := universe.Height() / float64(n)
	for _, p := range pts {
		x := clamp(int((p.X-universe.Min.X)/cw), n)
		y := clamp(int((p.Y-universe.Min.Y)/ch), n)
		grid[y][x]++
	}
	return grid
}

func printSideBySide(a, b [][]float64) {
	shades := []byte(" .:-=+*#%@")
	maxV := 0.0
	for _, g := range [][][]float64{a, b} {
		for _, row := range g {
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
		}
	}
	render := func(row []float64) []byte {
		line := make([]byte, len(row))
		for x, v := range row {
			idx := 0
			if maxV > 0 {
				idx = int(v / maxV * float64(len(shades)-1))
			}
			line[x] = shades[idx]
		}
		return line
	}
	for y := len(a) - 1; y >= 0; y-- {
		fmt.Printf("  %s   %s\n", render(a[y]), render(b[y]))
	}
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
