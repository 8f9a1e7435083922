package light

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"light/internal/labeled"
)

func TestLabeledAPI(t *testing.T) {
	// A 4-cycle alternating labels A-B-A-B: exactly one A-B-A path3 per
	// A vertex as the middle? Use explicit tiny case: count A-B edges.
	g := NewGraph(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	lg, err := WithLabels(g, []Label{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	edge, _ := PatternByName("path2")
	lp, err := WithPatternLabels(edge, []Label{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CountLabeled(lg, lp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All four cycle edges connect an A to a B.
	if res.Matches != 4 {
		t.Fatalf("A-B edges = %d, want 4", res.Matches)
	}
	if lg.Label(0) != 0 {
		t.Fatal("Label accessor broken")
	}
}

func TestLabeledAPIValidation(t *testing.T) {
	g := GenerateComplete(3)
	if _, err := WithLabels(g, []Label{0}); err == nil {
		t.Fatal("short labels accepted")
	}
	tri, _ := PatternByName("triangle")
	if _, err := WithPatternLabels(tri, []Label{0}); err == nil {
		t.Fatal("short pattern labels accepted")
	}
	lg, _ := WithLabels(g, []Label{0, 0, 0})
	lp, _ := WithPatternLabels(tri, []Label{0, 0, 0})
	if _, err := EnumerateLabeled(lg, lp, Options{}, nil); err == nil {
		t.Fatal("nil visitor accepted")
	}
}

func TestLabeledEnumerateAndParallelAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(300, 4, 8)
	labels := make([]Label, g.NumVertices())
	for v := range labels {
		labels[v] = Label(v % 3)
	}
	lg, err := WithLabels(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	tri, _ := PatternByName("triangle")
	lp, err := WithPatternLabels(tri, []Label{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := CountLabeled(lg, lp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CountLabeled(lg, lp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches != par.Matches {
		t.Fatalf("parallel %d != sequential %d", par.Matches, seq.Matches)
	}
	visited := uint64(0)
	_, err = EnumerateLabeled(lg, lp, Options{}, func(m []VertexID) bool {
		if lg.Label(m[0]) != 0 || lg.Label(m[1]) != 1 || lg.Label(m[2]) != 2 {
			t.Errorf("labels violated: %v", m)
		}
		visited++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != seq.Matches {
		t.Fatalf("visited %d, counted %d", visited, seq.Matches)
	}
}

func TestApproxCountAPI(t *testing.T) {
	g := GenerateComplete(12)
	tri, _ := PatternByName("triangle")
	est, hits, err := ApproxCount(g, tri, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("no hits on a complete graph")
	}
	if math.Abs(est-220)/220 > 0.1 {
		t.Fatalf("estimate %.1f, want ≈220", est)
	}
}

// labeledFixture is BA(2000,4) with two labels, plus a triangle whose
// vertices all carry label 0: its label-preserving automorphisms are
// all of Aut(triangle), so it plans exactly like the unlabeled
// triangle and only the label filter differs.
func labeledFixture(t *testing.T) (*Graph, *LabeledGraph, *LabeledPattern) {
	t.Helper()
	g := GenerateBarabasiAlbert(2000, 4, 1)
	labels := make([]Label, g.NumVertices())
	for v := range labels {
		labels[v] = Label(v % 2)
	}
	lg, err := WithLabels(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	tri, _ := PatternByName("triangle")
	lp, err := WithPatternLabels(tri, []Label{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	return g, lg, lp
}

// TestLabeledMemoryBudgetContract: a labeled run is governed like any
// other, so an impossible budget fails with ErrMemoryBudget and still
// reports.
func TestLabeledMemoryBudgetContract(t *testing.T) {
	_, lg, lp := labeledFixture(t)
	gov := NewGovernor(GovernorConfig{Slots: 1})
	res, err := CountLabeled(lg, lp, Options{Governor: gov, MemoryBudget: 1})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v (matches %d), want ErrMemoryBudget", err, res.Matches)
	}
	if res.Report == nil {
		t.Fatal("budget-stopped labeled run carried no report")
	}
	if gov.ActiveQueries() != 0 {
		t.Fatalf("admission leaked: ActiveQueries = %d", gov.ActiveQueries())
	}
}

// TestLabeledReportMatchesFilteredCount: CountLabeled and
// EnumerateLabeled report the same engine counters as Count with the
// label filter passed as Options.Filter.
func TestLabeledReportMatchesFilteredCount(t *testing.T) {
	g, lg, lp := labeledFixture(t)
	tri, _ := PatternByName("triangle")
	want, err := Count(g, tri, Options{Filter: labeled.Filter(lg.lg, lp.lp)})
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches == 0 {
		t.Fatal("fixture has no labeled triangles")
	}
	counted, err := CountLabeled(lg, lp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	enumerated, err := EnumerateLabeled(lg, lp, Options{}, func([]VertexID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	w := want.Report
	for name, res := range map[string]Result{"CountLabeled": counted, "EnumerateLabeled": enumerated} {
		r := res.Report
		if r == nil {
			t.Fatalf("%s: no report", name)
		}
		if r.Matches != w.Matches || r.Nodes != w.Nodes || r.Comps != w.Comps ||
			r.Intersections != w.Intersections || r.Galloping != w.Galloping ||
			r.Merges != w.Merges || r.Elements != w.Elements {
			t.Fatalf("%s report %+v, want the engine counters of %+v", name, r, w)
		}
	}
}

// TestCountLabeledRejectsUnsupportedOptions: options a labeled run
// cannot honour are errors, not silently ignored.
func TestCountLabeledRejectsUnsupportedOptions(t *testing.T) {
	g, lg, lp := labeledFixture(t)
	for name, opts := range map[string]Options{
		"Snapshot":       {Snapshot: g.Snapshot()},
		"CheckpointPath": {CheckpointPath: filepath.Join(t.TempDir(), "ck")},
		"ResumeFrom":     {ResumeFrom: filepath.Join(t.TempDir(), "ck")},
	} {
		if _, err := CountLabeled(lg, lp, opts); err == nil || !strings.Contains(err.Error(), "CountLabeled") {
			t.Errorf("%s: err = %v, want a CountLabeled rejection", name, err)
		}
		if _, err := EnumerateLabeled(lg, lp, opts, func([]VertexID) bool { return true }); err == nil {
			t.Errorf("EnumerateLabeled accepted %s", name)
		}
	}
}
