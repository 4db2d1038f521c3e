package privacyqp

import (
	"math"

	"casper/internal/geom"
	"casper/internal/rtree"
)

// This file is the exact step for a private nearest-neighbor query over
// public data. Algorithm 2's candidate list is minimal only given the
// filter objects it chose (Theorem 2): on served workloads it holds
// 1.4-4x the targets that are the nearest one to some point of the
// cloak. The exact step keeps exactly those, the targets whose Voronoi
// cell over the whole table meets the cloak — the same answer Hashem,
// Kulik and Zhang give to an NN query over a rectangle. It reads only
// the cloak and Algorithm 2's list, so it changes no cloak and no
// release; it drops only targets that are no point's answer.
//
// Algorithm 2's list is inclusive, so a cell taken over the list equals
// the cell taken over the whole table wherever it lies inside the
// cloak. A convex cell that meets the cloak either crosses its boundary
// or lies inside it, and then so does its site. The step therefore
// keeps every site inside the cloak, plus the nearest site at each
// point of the cloak's four edges, found by walking each edge from
// breakpoint to breakpoint of the lower envelope of the sites'
// distances. Every site tied at a corner or a breakpoint is kept, so a
// cell that touches the cloak in a single point counts as meeting it.

// ExactPublicNNInto is PrivateNN over public data followed by the exact
// step: the Result's Candidates are the targets nearest to some point
// of cloak, appended to dst (an exact-size list when dst is nil), and
// the rest of the Result is Algorithm 2's. Algorithm 2's own list never
// leaves the pooled scratch arena.
func ExactPublicNNInto(db SpatialIndex, cloak geom.Rect, opt Options, dst []rtree.Item) (Result, error) {
	sc := getScratch()
	defer putScratch(sc)
	res, err := privateNN(db, sc, cloak, PublicData, opt)
	if err != nil {
		return Result{}, err
	}
	res.Candidates = exactInto(sc, cloak, sc.cand, dst)
	return res, nil
}

// exactInto is the exact step in the arena sc: it appends to dst the
// targets of list that are nearest to some point of cloak, in list
// order, and returns dst; with a nil dst the result is the one
// allocation, an exact-size list. list must be an inclusive candidate
// list of public targets (points at Rect.Min) for cloak, as Algorithm
// 2's is.
func exactInto(sc *queryScratch, cloak geom.Rect, list, dst []rtree.Item) []rtree.Item {
	if len(list) == 0 {
		return dst
	}
	sites := sc.sites[:0]
	for i, it := range list {
		sites = append(sites, site{p: it.Rect.Min, i: int32(i), keep: it.Rect.Min.MinDist2Rect(cloak) == 0})
	}
	sc.sites = sites
	lo, hi := cloak.Min, cloak.Max
	sc.edge = walkEdge(sites, sc.edge, lo, true, hi.X-lo.X)                   // bottom
	sc.edge = walkEdge(sites, sc.edge, geom.Pt(lo.X, hi.Y), true, hi.X-lo.X)  // top
	sc.edge = walkEdge(sites, sc.edge, lo, false, hi.Y-lo.Y)                  // left
	sc.edge = walkEdge(sites, sc.edge, geom.Pt(hi.X, lo.Y), false, hi.Y-lo.Y) // right

	if dst == nil {
		n := 0
		for _, s := range sites {
			if s.keep {
				n++
			}
		}
		dst = make([]rtree.Item, 0, n)
	}
	for _, s := range sites {
		if s.keep {
			dst = append(dst, list[s.i])
		}
	}
	return dst
}

// site is one target of the exact step: its position, its index in the
// input list and whether it is kept.
type site struct {
	p    geom.Point
	i    int32
	keep bool
}

// edgeSite is a site as one edge walk sees it: u is its offset along
// the edge, w its squared distance from the edge's first corner, s its
// index in the sites.
type edgeSite struct {
	u, w float64
	s    int32
}

// walkEdge marks the sites nearest to some point of one axis-parallel
// cloak edge, from corner o to the point length further along x
// (horizontal) or y, and returns buf, the scratch it gathers the
// edge's sites in. At offset t along the edge a site's squared distance
// is t² - 2ut + w; t² is common to all, so the nearest site follows the
// lower envelope of the lines w - 2ut, and u grows at each breakpoint.
// The walk starts at the sites nearest o and steps to the site whose
// bisector with the current one crosses the edge first. Crossings are
// compared by cross-multiplication, so on integer coordinates every
// tie is found exactly.
func walkEdge(sites []site, buf []edgeSite, o geom.Point, horizontal bool, length float64) []edgeSite {
	// Only a site whose distance to the edge is within the smallest
	// furthest distance of any site to it can be nearest on it.
	bound := math.Inf(1)
	for _, s := range sites {
		du, dv := s.p.X-o.X, s.p.Y-o.Y
		if !horizontal {
			du, dv = dv, du
		}
		if far := length - du; far > du {
			du = far
		}
		if d := dv*dv + du*du; d < bound {
			bound = d
		}
	}
	// c is the current site: nearest o, and of those the last to leave.
	es, c, ties := buf[:0], 0, 0
	for i, s := range sites {
		du, dv := s.p.X-o.X, s.p.Y-o.Y
		if !horizontal {
			du, dv = dv, du
		}
		gap := 0.0
		if du < 0 {
			gap = -du
		} else if du > length {
			gap = du - length
		}
		if dv*dv+gap*gap > bound {
			continue
		}
		e := edgeSite{u: du, w: du*du + dv*dv, s: int32(i)}
		switch {
		case len(es) == 0 || e.w < es[c].w:
			c, ties = len(es), 1
		case e.w == es[c].w:
			ties++
			if e.u > es[c].u {
				c = len(es)
			}
		}
		es = append(es, e)
	}
	cu, cw := es[c].u, es[c].w
	sites[es[c].s].keep = true
	if ties > 1 {
		for _, e := range es {
			if e.w == cw {
				sites[e.s].keep = true
			}
		}
	}
	for {
		// Site j crosses c at t = (w_j - cw) / 2(u_j - cu); only sites
		// with u_j > cu cross after c takes over.
		n, ties := -1, 0
		var nw, nu float64 // w - cw and u - cu of n
		for j, e := range es {
			du := e.u - cu
			if du <= 0 {
				continue
			}
			dw := e.w - cw
			switch {
			case n < 0 || dw*nu < nw*du:
				n, nw, nu, ties = j, dw, du, 1
			case dw*nu == nw*du:
				ties++
				if du > nu {
					n, nw, nu = j, dw, du
				}
			}
		}
		if n < 0 || nw > 2*length*nu { // the next crossing is past the edge
			return es
		}
		sites[es[n].s].keep = true
		if ties > 1 {
			for _, e := range es {
				if du := e.u - cu; du > 0 && (e.w-cw)*nu == nw*du {
					sites[e.s].keep = true
				}
			}
		}
		cu, cw = es[n].u, es[n].w
	}
}
