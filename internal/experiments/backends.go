package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"casper/internal/anonymizer"
	"casper/internal/core"
	"casper/internal/geom"
	"casper/internal/privacy"
	"casper/internal/privacyqp"
)

// compareEpsilon is the geo-indistinguishability base budget the
// comparison uses. The package default (DefaultEpsilon, tuned for unit
// squares) would bury a 40 km universe in noise; 0.1 m⁻¹ puts the 95%
// confidence radius for a median profile (k≈25) at roughly a kilometer
// — the same order as the pyramid backends' cloaks, which is what
// makes the utility columns comparable.
const compareEpsilon = 0.1

// CompareBackends runs one workload through every registered privacy
// backend and reports privacy (achieved k, anonymity-set entropy,
// repeat-query linkage) against utility (region area, candidate-list
// size, cloak/query/transmission cost). One row per backend; the CSV
// form of this table is the artifact `make bench-backends` checks in.
//
// The k columns deliberately apply the k-anonymity yardstick to ALL
// backends, including geoind whose guarantee is differential rather
// than population-based: the point of the table is to show what each
// mechanism does and does not buy on the other's terms. The linkage
// column is the overlap attack over repeated cloaks of stationary
// users — 1.0 means repeats reveal nothing beyond the first release
// (deterministic region backends); near 0 means intersecting repeats
// shrinks the feasible zone (independent noise draws).
func CompareBackends(w *World) Table {
	tab := Table{
		ID: "B1",
		Title: fmt.Sprintf("privacy backends compared (%d users, %d targets, geoind ε=%v)",
			w.P.Users, w.P.Targets, compareEpsilon),
		Columns: []string{
			"backend", "k_mean", "k_satisfied_frac", "area_cells_mean",
			"entropy_mean_bits", "entropy_min_bits", "degenerate_frac",
			"linkage_surviving_frac", "candidates_mean",
			"cloak_us", "query_us", "transmit_us",
		},
	}
	db := w.PublicTree(w.P.Targets)
	tx := core.DefaultTransmission()
	for _, name := range anonymizer.Backends() {
		tab.Rows = append(tab.Rows, compareOne(w, name, db, tx))
	}
	return tab
}

func compareOne(w *World, name string, db privacyqp.SpatialIndex, tx core.TransmissionModel) []string {
	a, err := anonymizer.New(name, anonymizer.BackendConfig{
		Universe: w.Universe,
		Levels:   w.P.Levels,
		Seed:     w.P.Seed,
		Epsilon:  compareEpsilon,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: build backend %q: %v", name, err))
	}
	w.register(a, w.P.Users, w.Profiles)
	rng := rand.New(rand.NewSource(w.P.Seed + 77))

	// Cloaking pass: sample users, time the cloak, collect the released
	// regions plus the per-release achieved k.
	var (
		cloaks     []geom.Rect
		mechs      []anonymizer.Mechanism
		radii      []float64
		profileKs  []int
		cloakTotal time.Duration
	)
	for len(cloaks) < w.P.CloakSamples {
		uid := anonymizer.UserID(rng.Intn(w.P.Users))
		t0 := time.Now()
		cr, err := a.Cloak(uid)
		cloakTotal += time.Since(t0)
		if err != nil {
			continue // unsatisfiable profile at this population; skip
		}
		cloaks = append(cloaks, cr.Region)
		mechs = append(mechs, cr.Mechanism)
		radii = append(radii, cr.Radius)
		profileKs = append(profileKs, w.Profiles[uid].K)
	}

	// Privacy columns: population inside each region (achieved k),
	// whether it met the profile's request, anonymity-set entropy, and
	// repeat-query linkage for stationary users.
	kSum, kSat := 0, 0
	areaCells := 0.0
	for i, r := range cloaks {
		m := 0
		for _, p := range w.Initial {
			if r.Contains(p) {
				m++
			}
		}
		kSum += m
		if m >= profileKs[i] {
			kSat++
		}
		areaCells += r.Area() / w.LeafCellArea()
	}
	ent, err := privacy.AnalyzeEntropy(cloaks, w.Initial)
	if err != nil {
		panic(fmt.Sprintf("experiments: entropy for %q: %v", name, err))
	}
	linkage := 0.0
	const linkUsers, linkRepeats = 20, 10
	for u := 0; u < linkUsers; u++ {
		uid := anonymizer.UserID(rng.Intn(w.P.Users))
		seq := make([]geom.Rect, 0, linkRepeats)
		for r := 0; r < linkRepeats; r++ {
			if cr, err := a.Cloak(uid); err == nil {
				seq = append(seq, cr.Region)
			}
		}
		linkage += privacy.RunOverlapAttack(seq).SurvivingFraction
	}
	linkage /= linkUsers

	// Utility pass: evaluate an NN query per sampled release through the
	// mechanism-appropriate processor and cost the downlink.
	n := w.P.QuerySamples
	if n > len(cloaks) {
		n = len(cloaks)
	}
	candTotal := 0
	var queryTotal, txTotal time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var res privacyqp.Result
		var err error
		if mechs[i] == anonymizer.MechPerturbed {
			res, err = privacyqp.PerturbedKNN(db, cloaks[i].Center(), radii[i], 1, privacyqp.PublicData, privacyqp.Options{})
		} else {
			res, err = privacyqp.PrivateNN(db, cloaks[i], privacyqp.PublicData, privacyqp.Options{Filters: 4})
		}
		queryTotal += time.Since(t0)
		if err != nil {
			panic(fmt.Sprintf("experiments: query %d for %q: %v", i, name, err))
		}
		candTotal += len(res.Candidates)
		txTotal += tx.TimeFor(mechs[i], len(res.Candidates))
	}

	samples := float64(len(cloaks))
	return []string{
		name,
		f1(float64(kSum) / samples),
		f2(float64(kSat) / samples),
		f1(areaCells / samples),
		f2(ent.MeanBits),
		f2(ent.MinBits),
		f2(float64(ent.Degenerate) / samples),
		f2(linkage),
		f1(float64(candTotal) / float64(n)),
		us(avgDuration(cloakTotal, len(cloaks))),
		us(avgDuration(queryTotal, n)),
		us(avgDuration(txTotal, n)),
	}
}
