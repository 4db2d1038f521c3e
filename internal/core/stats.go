package core

import (
	"casper/internal/metrics"
	"casper/internal/privacyobs"
)

// Stats is the operator snapshot of a running instance. It is the one
// document every operator surface renders: the "stats" object of
// casperd's /debug/stats, its one transport, and casperctl's stats
// and privacy views.
type Stats struct {
	// Backend names the live privacy backend.
	Backend    string `json:"backend"`
	Users      int    `json:"users"`
	PublicObjs int    `json:"public_objects"`
	// Queries counts the private queries the server has answered.
	Queries int64 `json:"queries"`
	// UpdateCost is the anonymizer's cumulative maintenance cost.
	UpdateCost int64 `json:"update_cost"`
	// Continuous reports the continuous monitor; nil while it is
	// disabled.
	Continuous *ContinuousStats `json:"continuous,omitempty"`
	// Privacy is the privacy observatory's full snapshot.
	Privacy privacyobs.Snapshot `json:"privacy"`
}

// ContinuousStats is the continuous monitor's block of Stats: the
// standing-query population and the incremental-maintenance counters.
// Evaluations per update is the ratio to watch. SafeRegionHits counts
// the asker cloaks that lay inside the last evaluated cloak, so the
// standing answer was kept without re-evaluating.
type ContinuousStats struct {
	Queries        int   `json:"queries"`
	Updates        int64 `json:"updates"`
	Evaluations    int64 `json:"evaluations"`
	SafeRegionHits int64 `json:"safe_region_hits"`
}

// Stats assembles the operator snapshot. Taking it also evaluates the
// privacy SLO (see privacyobs.Observer.Snapshot).
func (c *Casper) Stats() Stats {
	b := c.backend.Load()
	st := Stats{
		Backend:    b.name,
		Users:      b.anon.Users(),
		PublicObjs: c.srv.PublicCount(),
		Queries:    c.srv.Queries(),
		UpdateCost: b.anon.UpdateCost(),
		Privacy:    privacyobs.Default.Snapshot(),
	}
	if mon := c.Monitor(); mon != nil {
		nr, nn, nrad := mon.QueryCounts()
		st.Continuous = &ContinuousStats{
			Queries:        nr + nn + nrad,
			Updates:        mon.Updates(),
			Evaluations:    mon.Evaluations(),
			SafeRegionHits: mon.SafeRegionHits(),
		}
	}
	return st
}

// DebugStats is the document casperd serves at /debug/stats and
// casperctl renders: the instance's Stats plus the typed view of every
// metric family.
type DebugStats struct {
	Stats   Stats            `json:"stats"`
	Metrics []metrics.Family `json:"metrics"`
}
