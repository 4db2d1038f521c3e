package server

import (
	"time"

	"casper/internal/geom"
	"casper/internal/privacyqp"
)

// Perturbed-point query entry points: the geo-indistinguishability
// backend releases a noisy point plus a confidence radius instead of a
// k-anonymous rectangle, and these methods answer the same query types
// through privacyqp's Perturbed* family. They are deliberately
// UNCACHED — every cloak draws fresh noise, so point keys essentially
// never repeat and caching them would only churn entries that
// region-shaped queries could have kept.

// NNPublicAt answers a nearest-neighbor query for a perturbed-point
// release over the public table: center is the noisy point, radius the
// confidence radius bounding the true position.
func (s *Server) NNPublicAt(center geom.Point, radius float64, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	res, err := privacyqp.PerturbedKNN(snap.public, center, radius, 1, privacyqp.PublicData, opt)
	qiNNPublic.observe(start, len(res.Candidates), err)
	return res, err
}

// NNPrivateAt is NNPublicAt over the private table, with the asker's
// own stored cloak hidden when excludeID >= 0.
func (s *Server) NNPrivateAt(center geom.Point, radius float64, excludeID int64, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	db := privacyqp.Without(s.snap.Load().private, excludeID)
	res, err := privacyqp.PerturbedKNN(db, center, radius, 1, privacyqp.PrivateData, opt)
	qiNNPrivate.observe(start, len(res.Candidates), err)
	return res, err
}

// KNNPublicAt answers a k-nearest-neighbor query for a perturbed-point
// release over the public table.
func (s *Server) KNNPublicAt(center geom.Point, radius float64, k int, opt privacyqp.Options) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	res, err := privacyqp.PerturbedKNN(snap.public, center, radius, k, privacyqp.PublicData, opt)
	qiKNNPublic.observe(start, len(res.Candidates), err)
	return res, err
}

// RangePublicAt answers a range query for a perturbed-point release
// over the public table: all targets within queryRadius of any
// position in the confidence disc.
func (s *Server) RangePublicAt(center geom.Point, radius, queryRadius float64) (privacyqp.Result, error) {
	start := time.Now()
	s.queries.Add(1)
	snap := s.snap.Load()
	res, err := privacyqp.PerturbedRange(snap.public, center, radius, queryRadius, privacyqp.PublicData)
	qiRange.observe(start, len(res.Candidates), err)
	return res, err
}
