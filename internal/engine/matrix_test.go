package engine

import (
	"testing"

	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

// TestTailCountDegreeFilterEquality promotes two soundness properties
// from scattered spot checks to a deterministic sweep over the full
// pattern catalog on seeded graphs:
//
//   - TailCount on/off must not change the match count. The shortcut
//     adds the size of the final MAT's candidate set instead of
//     looping, which is only sound because tail candidates already
//     passed every COMP/injectivity/partial-order check.
//   - DegreeFilter on/off must not change the match count. The filter
//     d_G(v) >= d_P(u) is sound for subgraph (not induced) matching:
//     any data vertex in a match has at least the pattern vertex's
//     degree.
//
// Both properties are checked per kernel, because TailCount bypasses
// the kernel on the tail position and DegreeFilter changes which
// candidate sets the kernels see.
func TestTailCountDegreeFilterEquality(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(80, 240, 7)},
		{"ba", gen.BarabasiAlbert(150, 3, 9)},
		{"starchords", gen.StarChords(40, 60, 5)},
		{"ties", gen.DegreeTies(5, 6, 3)},
	}
	kernels := []intersect.Kind{
		intersect.KindMerge, intersect.KindHybrid,
		intersect.KindMergeBlock, intersect.KindHybridBlock,
	}
	for _, tg := range graphs {
		for _, p := range pattern.Catalog() {
			po := pattern.SymmetryBreaking(p)
			pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				base, err := New(tg.g, pl, Options{Kernel: k}).Run(nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, p.Name(), err)
				}
				for _, opts := range []Options{
					{Kernel: k, TailCount: true},
					{Kernel: k, DegreeFilter: true},
					{Kernel: k, TailCount: true, DegreeFilter: true},
				} {
					res, err := New(tg.g, pl, opts).Run(nil)
					if err != nil {
						t.Fatalf("%s/%s tc=%v df=%v: %v", tg.name, p.Name(), opts.TailCount, opts.DegreeFilter, err)
					}
					if res.Matches != base.Matches {
						t.Errorf("%s/%s kernel=%d tc=%v df=%v: %d matches, want %d",
							tg.name, p.Name(), k, opts.TailCount, opts.DegreeFilter, res.Matches, base.Matches)
					}
				}
			}
		}
	}
}

// TestTailCountNodeAccounting pins the shortcut's side contract: with
// TailCount on, Nodes still counts every leaf (the batch adds n, not
// 1), so metrics stay comparable across configurations.
func TestTailCountNodeAccounting(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 13)
	for _, p := range pattern.Catalog() {
		po := pattern.SymmetryBreaking(p)
		pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		off, err := New(g, pl, Options{}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		on, err := New(g, pl, Options{TailCount: true}).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if on.Nodes != off.Nodes {
			t.Errorf("%s: TailCount changed node accounting: %d vs %d", p.Name(), on.Nodes, off.Nodes)
		}
	}
}
