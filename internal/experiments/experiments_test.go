package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny returns parameters small enough for unit tests while keeping
// every sweep non-degenerate.
func tiny() Params {
	p := Quick()
	p.Users = 1500
	p.Targets = 800
	p.CloakSamples = 80
	p.QuerySamples = 20
	return p
}

// cell parses a formatted table cell back to float.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Columns: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "X: demo") || !strings.Contains(s, "bbbb") {
		t.Fatalf("format:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, columns, rule, row
		t.Fatalf("line count %d:\n%s", len(lines), s)
	}
}

func TestParamsPresets(t *testing.T) {
	d, q := Default(), Quick()
	if d.Users != 50000 || d.Targets != 10000 || d.Levels != 9 {
		t.Fatalf("Default = %+v", d)
	}
	if q.Users >= d.Users || q.QuerySamples >= d.QuerySamples*5 {
		t.Fatalf("Quick not smaller: %+v", q)
	}
}

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(tiny())
	if len(w.Initial) != 1500 || len(w.Moved) != 1500 || len(w.Profiles) != 1500 {
		t.Fatalf("world sizes: %d %d %d", len(w.Initial), len(w.Moved), len(w.Profiles))
	}
	for i, p := range w.Initial {
		if !w.Universe.Contains(p) {
			t.Fatalf("initial %d outside universe", i)
		}
	}
	moved := 0
	for i := range w.Initial {
		if w.Initial[i] != w.Moved[i] {
			moved++
		}
	}
	if moved < 1400 {
		t.Fatalf("only %d users moved", moved)
	}
	for _, prof := range w.Profiles {
		if prof.K < 1 || prof.K > 50 {
			t.Fatalf("profile k = %d", prof.K)
		}
		if prof.AMin <= 0 {
			t.Fatalf("profile Amin = %v", prof.AMin)
		}
	}
}

func TestWorldTrees(t *testing.T) {
	w := NewWorld(tiny())
	pub := w.PublicTree(500)
	if pub.Len() != 500 {
		t.Fatalf("public tree = %d", pub.Len())
	}
	priv := w.PrivateTree(300, [2]int{1, 64})
	if priv.Len() != 300 {
		t.Fatalf("private tree = %d", priv.Len())
	}
	leaf := w.LeafCellArea()
	for _, it := range priv.All() {
		if it.Rect.Area() > 64*leaf+1e-6 {
			t.Fatalf("private region too large: %v cells", it.Rect.Area()/leaf)
		}
	}
}

func TestFixedSizeCloaks(t *testing.T) {
	w := NewWorld(tiny())
	cloaks := w.FixedSizeCloaks(50, 64)
	leaf := w.LeafCellArea()
	for _, c := range cloaks {
		if !w.Universe.ContainsRect(c) {
			t.Fatalf("cloak outside universe: %v", c)
		}
		// Area is 64 cells except where clipped at the boundary.
		if c.Area() > 64*leaf+1e-6 {
			t.Fatalf("cloak area %v cells", c.Area()/leaf)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	w := NewWorld(tiny())
	a := Fig10a(w)
	if len(a.Rows) != len(heightSweep) {
		t.Fatalf("F10a rows = %d", len(a.Rows))
	}
	// Adaptive cloaking should not be slower than basic at the tallest
	// pyramid (the paper's key claim for heights > 6).
	last := len(a.Rows) - 1
	if adaptive, basic := cell(t, a, last, 2), cell(t, a, last, 1); adaptive > basic*1.5 {
		t.Fatalf("F10a at H=9: adaptive %v much slower than basic %v", adaptive, basic)
	}

	b := Fig10b(w)
	// Basic maintenance cost grows with height; at H=9 the adaptive
	// structure must be cheaper.
	if basic4, basic9 := cell(t, b, 0, 1), cell(t, b, last, 1); basic9 <= basic4 {
		t.Fatalf("F10b basic cost should grow with height: %v -> %v", basic4, basic9)
	}
	if ad9, basic9 := cell(t, b, last, 2), cell(t, b, last, 1); ad9 >= basic9 {
		t.Fatalf("F10b at H=9: adaptive %v not cheaper than basic %v", ad9, basic9)
	}
	// At H=4 the incomplete pyramid is complete (every cell holds a
	// user satisfied one level down), so it costs what basic does: no
	// build-time split work may leak into the movement phase.
	if ad4, basic4 := b.Rows[0][2], b.Rows[0][1]; ad4 != basic4 {
		t.Fatalf("F10b at H=4: adaptive %s != basic %s", ad4, basic4)
	}

	c := Fig10c(w)
	// Accuracy k'/k approaches 1 from above as the pyramid deepens,
	// most dramatically for the relaxed group.
	if shallow, deep := cell(t, c, 0, 1), cell(t, c, last, 1); deep >= shallow {
		t.Fatalf("F10c relaxed-group accuracy should improve with height: %v -> %v", shallow, deep)
	}
	if deep := cell(t, c, last, 1); deep < 1 {
		t.Fatalf("F10c accuracy below 1: %v", deep)
	}

	d := Fig10d(w)
	if shallow, deep := cell(t, d, 0, 1), cell(t, d, last, 1); deep >= shallow {
		t.Fatalf("F10d accuracy should improve with height: %v -> %v", shallow, deep)
	}
}

func TestFig11Shapes(t *testing.T) {
	w := NewWorld(tiny())
	a := Fig11a(w)
	if len(a.Rows) != 5 {
		t.Fatalf("F11a rows = %d", len(a.Rows))
	}
	b := Fig11b(w)
	// At the full population the adaptive structure updates fewer
	// counters per move than the complete pyramid.
	last := len(b.Rows) - 1
	if ad, basic := cell(t, b, last, 2), cell(t, b, last, 1); ad >= basic {
		t.Fatalf("F11b adaptive %v not cheaper than basic %v", ad, basic)
	}
}

func TestFig12Shapes(t *testing.T) {
	w := NewWorld(tiny())
	a := Fig12a(w)
	if len(a.Rows) != len(kGroupsCloaking) {
		t.Fatalf("F12a rows = %d", len(a.Rows))
	}
	// Basic cloaking gets more expensive with stricter k (more climbing).
	if relaxed, strict := cell(t, a, 0, 1), cell(t, a, len(a.Rows)-1, 1); strict <= relaxed {
		t.Logf("F12a basic: relaxed %v, strict %v (non-monotone runs happen at tiny scale)", relaxed, strict)
	}
	b := Fig12b(w)
	// Adaptive maintenance gets cheaper with stricter profiles; basic
	// stays flat. Check adaptive strict < adaptive relaxed.
	if relaxed, strict := cell(t, b, 0, 2), cell(t, b, len(b.Rows)-1, 2); strict >= relaxed {
		t.Fatalf("F12b adaptive cost should fall with stricter k: %v -> %v", relaxed, strict)
	}
}

func TestFig13And14Shapes(t *testing.T) {
	w := NewWorld(tiny())
	for _, tab := range []Table{Fig13a(w), Fig14a(w)} {
		if len(tab.Rows) != 4 {
			t.Fatalf("%s rows = %d", tab.ID, len(tab.Rows))
		}
		last := len(tab.Rows) - 1
		// Four filters give a smaller candidate list than one filter at
		// the full target population (the paper's headline QP result).
		if one, four := cell(t, tab, last, 1), cell(t, tab, last, 3); four >= one {
			t.Fatalf("%s: 4 filters (%v) not smaller than 1 filter (%v)", tab.ID, four, one)
		}
		// Candidate list grows with target density.
		if first, lastV := cell(t, tab, 0, 3), cell(t, tab, last, 3); lastV <= first {
			t.Fatalf("%s: candidates should grow with targets: %v -> %v", tab.ID, first, lastV)
		}
	}
	// Time tables parse.
	for _, tab := range []Table{Fig13b(w), Fig14b(w)} {
		for r := range tab.Rows {
			for c := 1; c < 4; c++ {
				if v := cell(t, tab, r, c); v <= 0 {
					t.Fatalf("%s: non-positive time %v", tab.ID, v)
				}
			}
		}
	}
}

func TestFig15And16Shapes(t *testing.T) {
	w := NewWorld(tiny())
	a := Fig15a(w)
	if len(a.Rows) != len(queryCellSweep) {
		t.Fatalf("F15a rows = %d", len(a.Rows))
	}
	// Bigger query regions -> more candidates.
	if small, big := cell(t, a, 0, 3), cell(t, a, len(a.Rows)-1, 3); big <= small {
		t.Fatalf("F15a candidates should grow with region: %v -> %v", small, big)
	}
	b := Fig16a(w)
	if len(b.Rows) != len(dataCellSweep) {
		t.Fatalf("F16a rows = %d", len(b.Rows))
	}
	// Bigger data regions -> more candidates (for 4 filters too).
	if small, big := cell(t, b, 0, 3), cell(t, b, len(b.Rows)-1, 3); big <= small {
		t.Fatalf("F16a candidates should grow with data regions: %v -> %v", small, big)
	}
	// Time tables parse.
	for _, tab := range []Table{Fig15b(w), Fig16b(w)} {
		for r := range tab.Rows {
			if v := cell(t, tab, r, 3); v <= 0 {
				t.Fatalf("%s: non-positive time", tab.ID)
			}
		}
	}
}

func TestFig17Shape(t *testing.T) {
	w := NewWorld(tiny())
	tab := Fig17(w, false)
	if len(tab.Rows) != len(kGroupsSmall)*2 {
		t.Fatalf("F17a rows = %d", len(tab.Rows))
	}
	// Transmission time is proportional to candidates: check the model
	// on one row: candidates * 64B * 8 / 100Mbps in us.
	cands := cell(t, tab, 0, 6)
	tx := cell(t, tab, 0, 4)
	want := cands * 64 * 8 / 100e6 * 1e6
	if diff := tx - want; diff > 0.5 || diff < -0.5 {
		t.Fatalf("transmit %v us, want %v us for %v candidates", tx, want, cands)
	}
	// Stricter k -> more candidates (public rows are even indices).
	if first, last := cell(t, tab, 0, 6), cell(t, tab, len(tab.Rows)-2, 6); last <= first {
		t.Fatalf("candidates should grow with k: %v -> %v", first, last)
	}
	large := Fig17(w, true)
	if large.ID != "F17b" || len(large.Rows) != len(kGroupsCloaking)*2 {
		t.Fatalf("F17b shape: %s %d", large.ID, len(large.Rows))
	}
}

func TestAblationNeighborMerge(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationNeighborMerge(w)
	if len(tab.Rows) != len(kGroupsAccuracy) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	better := 0
	for r := range tab.Rows {
		with, without := cell(t, tab, r, 1), cell(t, tab, r, 2)
		if with < 1 || without < 1 {
			t.Fatalf("accuracy below 1: %v %v", with, without)
		}
		if with <= without {
			better++
		}
	}
	// The neighbor merge should help (tie or win) in most groups.
	if better < len(tab.Rows)/2 {
		t.Fatalf("neighbor merge helped in only %d/%d groups", better, len(tab.Rows))
	}
}

func TestAblationNaiveExtremes(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationNaiveExtremes(w)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	naivePct := cell(t, tab, 0, 1)
	casperPct := cell(t, tab, 1, 1)
	if casperPct != 100 {
		t.Fatalf("casper correctness = %v%%, want 100%%", casperPct)
	}
	if naivePct >= 100 {
		t.Fatalf("naive center-NN suspiciously perfect: %v%%", naivePct)
	}
	casperBytes := cell(t, tab, 1, 2)
	allBytes := cell(t, tab, 2, 2)
	if casperBytes >= allBytes {
		t.Fatalf("casper bytes %v not below ship-all %v", casperBytes, allBytes)
	}
}

func TestAblationCloakers(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationCloakers(w)
	if len(tab.Rows) != 4*3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Casper rows report zero boundary leak; cliquecloak rows report a
	// positive leak whenever they succeed.
	for r := 0; r < len(tab.Rows); r += 3 {
		if tab.Rows[r][1] != "casper-adaptive" {
			t.Fatalf("row %d: %v", r, tab.Rows[r])
		}
		if leak := cell(t, tab, r, 4); leak != 0 {
			t.Fatalf("casper leak = %v", leak)
		}
	}
}

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	p := tiny()
	p.CloakSamples = 40
	p.QuerySamples = 10
	start := time.Now()
	tables := All(p)
	if len(tables) != 28 {
		t.Fatalf("tables = %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab.ID == "" || len(tab.Rows) == 0 {
			t.Fatalf("empty table %q", tab.ID)
		}
		if seen[tab.ID] {
			t.Fatalf("duplicate table %s", tab.ID)
		}
		seen[tab.ID] = true
	}
	t.Logf("full sweep at tiny scale took %v", time.Since(start))
}

func TestAblationIndexes(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationIndexes(w)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The grid row must report matching answers.
	if tab.Rows[1][4] != "yes" {
		t.Fatalf("index answers diverged: %v", tab.Rows[1])
	}
	// Candidate means identical across indexes.
	if cell(t, tab, 0, 3) != cell(t, tab, 1, 3) {
		t.Fatalf("mean candidates differ: %v vs %v", tab.Rows[0][3], tab.Rows[1][3])
	}
}

func TestAblationWAL(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationWAL(w)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for r := range tab.Rows {
		if v := cell(t, tab, r, 1); v <= 0 {
			t.Fatalf("row %d: non-positive cost", r)
		}
	}
}

func TestAblationAdversary(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationAdversary(w)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Casper: neutral guess error, zero pinpointed, no k violations,
	// full overlap survival.
	if v := cell(t, tab, 0, 1); v < 0.85 || v > 1.15 {
		t.Fatalf("casper normalized guess error = %v", v)
	}
	if v := cell(t, tab, 0, 2); v != 0 {
		t.Fatalf("casper pinpointed %% = %v", v)
	}
	if v := cell(t, tab, 0, 4); v < 0.99 {
		t.Fatalf("casper overlap survival = %v", v)
	}
	// The strawman is fully broken.
	if v := cell(t, tab, 1, 2); v != 100 {
		t.Fatalf("user-centered pinpointed %% = %v", v)
	}
}

func TestAblationTemporal(t *testing.T) {
	w := NewWorld(tiny())
	tab := AblationTemporal(w)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Temporal delay grows with k; Casper answers instantly at growing
	// area. At tiny scale some rows can be fully unreleased; require
	// the monotone area column and zero casper delay.
	prevArea := 0.0
	for r := range tab.Rows {
		if tab.Rows[r][4] != "0.0" {
			t.Fatalf("casper delay row %d = %q", r, tab.Rows[r][4])
		}
		area := cell(t, tab, r, 3)
		if area < prevArea {
			t.Fatalf("casper area not monotone in k: %v -> %v", prevArea, area)
		}
		prevArea = area
	}
	// Delay or unreleased fraction must grow with k.
	d0, d2 := cell(t, tab, 0, 1), cell(t, tab, 2, 1)
	u0, u2 := cell(t, tab, 0, 2), cell(t, tab, 2, 2)
	if d2 < d0 && u2 <= u0 {
		t.Fatalf("temporal cost did not grow with k: delay %v->%v unreleased %v->%v", d0, d2, u0, u2)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Columns: []string{"a", "b,c"}}
	tab.AddRow("1", "hello")
	tab.AddRow("2", `with "quotes"`)
	got := tab.CSV()
	want := "a,\"b,c\"\n1,hello\n2,\"with \"\"quotes\"\"\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestUnshownAminPanels(t *testing.T) {
	w := NewWorld(tiny())
	x1 := FigX1(w)
	if len(x1.Rows) != len(aminGroupsSweep) {
		t.Fatalf("X1 rows = %d", len(x1.Rows))
	}
	x2 := FigX2(w)
	// The paper's claim: same shapes as the k sweep. Basic stays flat;
	// adaptive gets cheaper as Amin gets stricter (higher maintained
	// cells).
	if relaxed, strict := cell(t, x2, 0, 2), cell(t, x2, len(x2.Rows)-1, 2); strict >= relaxed {
		t.Fatalf("X2 adaptive cost should fall with stricter Amin: %v -> %v", relaxed, strict)
	}
	x3 := FigX3(w)
	if len(x3.Rows) != len(aminGroupsSweep)*2 {
		t.Fatalf("X3 rows = %d", len(x3.Rows))
	}
	// Stricter Amin -> bigger cloaks -> more candidates (public rows).
	if first, last := cell(t, x3, 0, 6), cell(t, x3, len(x3.Rows)-2, 6); last <= first {
		t.Fatalf("X3 candidates should grow with Amin: %v -> %v", first, last)
	}
}

func TestContinuousPanel(t *testing.T) {
	w := NewWorld(tiny())
	x4 := FigX4(w)
	if len(x4.Rows) != 3 {
		t.Fatalf("X4 rows = %d", len(x4.Rows))
	}
	// Safe regions must answer at least some asker moves without a
	// full re-evaluation (1.00 means none).
	last := len(x4.Rows) - 1
	if evals := cell(t, x4, last, 2); evals >= 1 {
		t.Fatalf("safe regions saved nothing: %v evals/move", evals)
	}
}

func TestCompareBackendsShape(t *testing.T) {
	w := NewWorld(tiny())
	tab := CompareBackends(w)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d; want one per registered backend", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells; header has %d", row, len(row), len(tab.Columns))
		}
		byName[row[0]] = row
	}
	for _, name := range []string{"basic", "adaptive", "cluster", "geoind"} {
		if byName[name] == nil {
			t.Fatalf("backend %q missing from the table", name)
		}
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	get := func(backend, column string) float64 {
		v, err := strconv.ParseFloat(byName[backend][col(column)], 64)
		if err != nil {
			t.Fatalf("%s/%s: %v", backend, column, err)
		}
		return v
	}

	// The k-anonymous backends must actually satisfy their profiles.
	for _, name := range []string{"basic", "adaptive", "cluster"} {
		if sat := get(name, "k_satisfied_frac"); sat < 0.99 {
			t.Errorf("%s k_satisfied_frac = %v; want ~1", name, sat)
		}
		// Deterministic regions reveal nothing extra on repeat queries.
		if link := get(name, "linkage_surviving_frac"); link < 0.99 {
			t.Errorf("%s linkage = %v; want 1 (deterministic cloaks)", name, link)
		}
	}
	// Clustering hugs the population: regions no larger than the
	// pyramid baseline's.
	if get("cluster", "area_cells_mean") > get("basic", "area_cells_mean") {
		t.Errorf("cluster area %v > basic area %v", get("cluster", "area_cells_mean"), get("basic", "area_cells_mean"))
	}
	// Independent noise draws intersect away on repeats: geoind's
	// linkage survival must be visibly below the deterministic 1.0.
	if link := get("geoind", "linkage_surviving_frac"); link > 0.9 {
		t.Errorf("geoind linkage = %v; want < 0.9 (fresh noise per cloak)", link)
	}
	// Everything costs something: timings and candidates are positive.
	for _, name := range []string{"basic", "adaptive", "cluster", "geoind"} {
		for _, c := range []string{"candidates_mean", "cloak_us", "query_us", "transmit_us"} {
			if get(name, c) <= 0 {
				t.Errorf("%s %s = %v; want > 0", name, c, get(name, c))
			}
		}
	}
}
