// Package privacyqptest holds a brute-force reference for tests of the
// privacy-aware query processor: the exact candidate list of a private
// nearest-neighbor query over public data, computed by half-plane
// clipping over the whole table in exact rational arithmetic. It
// shares no code with privacyqp.ExactPublicNNInto, which it checks.
package privacyqptest

import (
	"cmp"
	"math"
	"math/big"
	"slices"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// ExactNN returns the IDs of the public targets of all (points at
// Rect.Min) whose closed Voronoi cell over all meets cloak: the targets
// nearest to some point of cloak, ties included.
func ExactNN(all []rtree.Item, cloak geom.Rect) map[int64]bool {
	ids := map[int64]bool{}
	order := make([]int, len(all))
	for s := range all {
		if cellMeets(all, s, order, cloak) {
			ids[all[s].ID] = true
		}
	}
	return ids
}

// cellMeets clips cloak with the half-plane of every bisector between
// all[s] and another site and reports whether anything is left. A site
// at the same position shares the cell. order is scratch of len(all).
//
// Floating point decides when it can do so with a wide margin: if the
// cell widened by the margin misses the cloak, or the cell narrowed by
// it meets the cloak. Otherwise — a tie, or nearly one — the clip is
// redone in exact rational arithmetic.
func cellMeets(all []rtree.Item, s int, order []int, cloak geom.Rect) bool {
	sp := all[s].Rect.Min
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return cmp.Compare(all[i].Rect.Min.Dist2(sp), all[j].Rect.Min.Dist2(sp))
	})
	tol := 1e-7 * (1 + math.Abs(sp.X) + math.Abs(sp.Y) + cloak.Width() + cloak.Height())
	if len(clipFloat(all, sp, order, cloak, tol)) == 0 {
		return false
	}
	if len(clipFloat(all, sp, order, cloak, -tol)) > 0 {
		return true
	}
	return clipRat(all, sp, order, cloak)
}

// ring lists the cloak's corners around its boundary (Corners gives
// lower-left, lower-right, upper-left, upper-right).
func ring(cloak geom.Rect) []geom.Point {
	c := cloak.Corners()
	return []geom.Point{c[0], c[1], c[3], c[2]}
}

// clipFloat keeps the points of cloak whose signed distance to each
// bisector, positive on the far side, is at most tol. The sites are
// taken nearest s first: once every vertex left lies within r of s, a
// site more than 2r from s cannot cut it.
func clipFloat(all []rtree.Item, sp geom.Point, order []int, cloak geom.Rect, tol float64) []geom.Point {
	poly := ring(cloak)
	for _, o := range order {
		op := all[o].Rect.Min
		if op == sp {
			continue
		}
		r2 := 0.0
		for _, v := range poly {
			r2 = max(r2, v.Dist2(sp))
		}
		if op.Dist2(sp) > 4*r2+8*math.Abs(tol)*math.Sqrt(r2)+4*tol*tol {
			break
		}
		d := 2 * op.Dist(sp)
		f := func(p geom.Point) float64 { return (p.Dist2(sp) - p.Dist2(op)) / d }
		var out []geom.Point
		for i, cur := range poly {
			nxt := poly[(i+1)%len(poly)]
			fc, fn := f(cur)-tol, f(nxt)-tol
			if fc <= 0 {
				out = append(out, cur)
			}
			if fc < 0 && fn > 0 || fc > 0 && fn < 0 {
				out = append(out, cur.Add(nxt.Sub(cur).Scale(fc/(fc-fn))))
			}
		}
		if poly = out; len(poly) == 0 {
			return nil
		}
	}
	return poly
}

type pt struct{ x, y *big.Rat }

func rat(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }

// clipRat is the exact clip: p is kept iff 2p·(o-s) <= |o|² - |s|² for
// every other site o.
func clipRat(all []rtree.Item, sp geom.Point, order []int, cloak geom.Rect) bool {
	var poly []pt
	for _, c := range ring(cloak) {
		poly = append(poly, pt{rat(c.X), rat(c.Y)})
	}
	sx, sy := rat(sp.X), rat(sp.Y)
	for _, o := range order {
		op := all[o].Rect.Min
		if op == sp {
			continue
		}
		ox, oy := rat(op.X), rat(op.Y)
		a := new(big.Rat).Sub(ox, sx)
		a.Add(a, a)
		b := new(big.Rat).Sub(oy, sy)
		b.Add(b, b)
		c := new(big.Rat).Sub(new(big.Rat).Add(new(big.Rat).Mul(ox, ox), new(big.Rat).Mul(oy, oy)),
			new(big.Rat).Add(new(big.Rat).Mul(sx, sx), new(big.Rat).Mul(sy, sy)))
		f := func(p pt) *big.Rat {
			v := new(big.Rat).Mul(a, p.x)
			v.Add(v, new(big.Rat).Mul(b, p.y))
			return v.Sub(v, c)
		}
		var out []pt
		for i, cur := range poly {
			nxt := poly[(i+1)%len(poly)]
			fc, fn := f(cur), f(nxt)
			if fc.Sign() <= 0 {
				out = append(out, cur)
			}
			if fc.Sign()*fn.Sign() < 0 {
				t := new(big.Rat).Quo(fc, new(big.Rat).Sub(fc, fn))
				x := new(big.Rat).Mul(t, new(big.Rat).Sub(nxt.x, cur.x))
				y := new(big.Rat).Mul(t, new(big.Rat).Sub(nxt.y, cur.y))
				out = append(out, pt{x.Add(x, cur.x), y.Add(y, cur.y)})
			}
		}
		if poly = out; len(poly) == 0 {
			return false
		}
	}
	return true
}
