package engine

import (
	"testing"

	"light/internal/arena"
	"light/internal/gen"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// compile builds a LIGHT plan for p with symmetry breaking, failing the
// test on compile errors.
func compile(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestSteadyStateZeroAllocs pins the arena contract: after the first run
// warms the slabs, whole enumeration runs allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	g := gen.StarChords(120, 360, 11)
	pl := compile(t, pattern.P5())
	for _, k := range []intersect.Kind{intersect.KindHybridBlock, intersect.KindMergeBlock} {
		e := New(g, pl, Options{Kernel: k})
		if _, err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(3, func() {
			if _, err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("kernel %v: %v allocations per steady-state run, want 0", k, n)
		}
	}
}

// TestSharedArenaAcrossEnumerators pins the per-worker reuse pattern the
// parallel scheduler relies on: two enumerators built on one arena (run
// sequentially) share slabs, and the footprint does not grow with the
// number of enumerators.
func TestSharedArenaAcrossEnumerators(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 5)
	pl := compile(t, pattern.Triangle())
	ar := arena.New()
	opts := Options{Kernel: intersect.KindHybridBlock, Arena: ar}
	e1 := New(g, pl, opts)
	r1, err := e1.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	after1 := ar.Bytes()
	e2 := New(g, pl, opts)
	r2, err := e2.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Matches != r2.Matches {
		t.Fatalf("shared-arena runs disagree: %d vs %d", r1.Matches, r2.Matches)
	}
	if ar.Bytes() != after1 {
		t.Fatalf("arena grew across enumerators: %d then %d", after1, ar.Bytes())
	}
	if e1.CandidateMemoryBytes() != e2.CandidateMemoryBytes() {
		t.Fatal("enumerators on one arena report different footprints")
	}
}
