package lanes

import (
	"fmt"
	"testing"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

func compile(t *testing.T, p *pattern.Pattern) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// refFilter builds the sequential-reference filter equivalent to a lane
// Spec: reject roots outside the root set, assignments below the degree
// threshold, and assignments the lane's own filter rejects. Running the
// engine alone under this filter is, by definition, the ground truth a
// lane's attributed counters must reproduce.
func refFilter(g *graph.Graph, pl *plan.Plan, sp Spec) func(u int, v graph.VertexID) bool {
	var inRoots map[graph.VertexID]bool
	if sp.Roots != nil {
		inRoots = make(map[graph.VertexID]bool, len(sp.Roots))
		for _, v := range sp.Roots {
			inRoots[v] = true
		}
	}
	root := pl.Pi[0]
	return func(u int, v graph.VertexID) bool {
		if inRoots != nil && u == root && !inRoots[v] {
			return false
		}
		if g.Degree(v) < sp.MinDegree {
			return false
		}
		return sp.Filter == nil || sp.Filter(u, v)
	}
}

func laneSpecs(g *graph.Graph) []Spec {
	n := g.NumVertices()
	var even, firstHalf []graph.VertexID
	for v := 0; v < n; v++ {
		if v%2 == 0 {
			even = append(even, graph.VertexID(v))
		}
		if v < n/2 {
			firstHalf = append(firstHalf, graph.VertexID(v))
		}
	}
	mod3 := func(u int, v graph.VertexID) bool { return v%3 != 0 }
	evenOnly := func(u int, v graph.VertexID) bool { return v%2 == 0 }
	return []Spec{
		{}, // the unrestricted lane: must reproduce a plain run exactly
		{Roots: even},
		{MinDegree: 3},
		{Filter: mod3},
		{Roots: firstHalf, MinDegree: 2, Filter: evenOnly},
		{MinDegree: 1000}, // dead everywhere on these graphs
	}
}

// TestLaneParityMatrix is the deterministic parity sweep the issue
// gates on: for seeded graphs × the full pattern catalog × kernels, a
// lane-batched run's per-lane counters (matches, nodes, comps, and the
// full intersection stats) must equal, bit for bit, what a sequential
// run of each lane's query alone reports.
func TestLaneParityMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(80, 240, 7)},
		{"ba", gen.BarabasiAlbert(120, 3, 9)},
		{"starchords", gen.StarChords(40, 60, 5)},
	}
	kernels := []intersect.Kind{intersect.KindHybrid, intersect.KindHybridBlock}
	for _, tg := range graphs {
		specs := laneSpecs(tg.g)
		for _, p := range pattern.Catalog() {
			pl := compile(t, p)
			for _, k := range kernels {
				set, err := NewSet(tg.g.NumVertices(), specs)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := engine.New(tg.g, pl, engine.Options{Kernel: k, Lanes: set}).Run(nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, p.Name(), err)
				}
				if len(batched.Lanes) != len(specs) {
					t.Fatalf("%s/%s: %d lane results for %d specs", tg.name, p.Name(), len(batched.Lanes), len(specs))
				}
				for lane, sp := range specs {
					solo, err := engine.New(tg.g, pl, engine.Options{
						Kernel: k,
						Filter: refFilter(tg.g, pl, sp),
					}).Run(nil)
					if err != nil {
						t.Fatal(err)
					}
					got := batched.Lanes[lane]
					want := engine.LaneCounts{
						Matches: solo.Matches, Nodes: solo.Nodes, Comps: solo.Comps, Stats: solo.Stats,
					}
					if got != want {
						t.Errorf("%s/%s kernel=%d lane=%d: batched %+v, sequential %+v",
							tg.name, p.Name(), k, lane, got, want)
					}
				}
			}
		}
	}
}

// TestLaneSharedWorkIsShared pins the point of batching: the shared
// traversal's actually-performed intersections must be far fewer than
// the sum of the per-lane attributed intersections when lanes overlap
// (here: six lanes whose trees nest inside the unrestricted lane's).
func TestLaneSharedWorkIsShared(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 11)
	pl := compile(t, pattern.P2())
	specs := []Spec{{}, {MinDegree: 2}, {MinDegree: 4}, {MinDegree: 8}}
	set, err := NewSet(g.NumVertices(), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(g, pl, engine.Options{Lanes: set}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var attributed uint64
	for _, lc := range res.Lanes {
		attributed += lc.Stats.Intersections
	}
	// The shared count is what the engine really did; with four nested
	// lanes every intersection below the loosest threshold is charged
	// to several lanes at once.
	if res.Stats.Intersections >= attributed {
		t.Fatalf("no sharing: %d shared intersections vs %d attributed",
			res.Stats.Intersections, attributed)
	}
}

// TestLaneResumeMask: Snapshot must capture the live-lane mask, and
// Resume in lane mode must reject frames whose mask is empty or claims
// lanes outside the set — resuming those would attribute a subtree to
// the wrong queries.
func TestLaneResumeMask(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 3)
	pl := compile(t, pattern.Triangle())
	set, err := NewSet(g.NumVertices(), []Spec{{}, {MinDegree: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g, pl, engine.Options{Lanes: set})
	var frames []*engine.Frame
	e.Hook = func(en *engine.Enumerator, sigmaIdx int, candidates []graph.VertexID) int {
		if len(frames) == 0 && len(candidates) > 1 {
			frames = append(frames, en.Snapshot(sigmaIdx, candidates[1:]))
			return 1
		}
		return len(candidates)
	}
	full, err := engine.New(g, pl, engine.Options{Lanes: set}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	head, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Result.Lanes aliases the enumerator's reused lane buffer: copy
	// before running the same enumerator again (as the parallel ledger
	// does when it banks a chunk's delta).
	headLanes := append([]engine.LaneCounts(nil), head.Lanes...)
	if len(frames) == 0 {
		t.Fatal("donation hook never fired")
	}
	f := frames[0]
	if f.LaneMask == 0 || f.LaneMask&^set.All() != 0 {
		t.Fatalf("snapshot lane mask %b outside set %b", f.LaneMask, set.All())
	}

	// Resuming the donated tail must complete the lane-exact counts.
	e.Hook = nil
	tail, err := e.Resume(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lane := range full.Lanes {
		sum := headLanes[lane]
		sum.Add(tail.Lanes[lane])
		if sum != full.Lanes[lane] {
			t.Errorf("lane %d: head+tail %+v != full %+v", lane, sum, full.Lanes[lane])
		}
	}

	// A zero or foreign mask must be refused.
	for _, mask := range []uint64{0, 1 << 7} {
		bad := *f
		bad.LaneMask = mask
		if _, err := e.Resume(&bad, nil); err == nil {
			t.Errorf("Resume accepted lane mask %b", mask)
		}
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(10, nil); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := NewSet(10, make([]Spec, 65)); err == nil {
		t.Error("65 lanes accepted")
	}
	if _, err := NewSet(10, []Spec{{Roots: []graph.VertexID{10}}}); err == nil {
		t.Error("out-of-range root accepted")
	}
	s, err := NewSet(10, make([]Spec, 64))
	if err != nil {
		t.Fatal(err)
	}
	if s.All() != ^uint64(0) || s.NumLanes() != 64 {
		t.Errorf("full word: all=%x n=%d", s.All(), s.NumLanes())
	}
}

// TestDegreeLadder pins the bit-parallel MinDegree evaluation: one
// ladder lookup must reproduce every lane's threshold comparison.
func TestDegreeLadder(t *testing.T) {
	specs := []Spec{{MinDegree: 0}, {MinDegree: 2}, {MinDegree: 2}, {MinDegree: 5}, {MinDegree: -3}}
	s, err := NewSet(100, specs)
	if err != nil {
		t.Fatal(err)
	}
	for deg := 0; deg <= 6; deg++ {
		var want uint64
		for lane, sp := range specs {
			if t := sp.MinDegree; t <= deg || t < 0 {
				want |= 1 << uint(lane)
			}
		}
		if got := s.MaskFor(0, 0, deg); got != want {
			t.Errorf("deg=%d: mask %b, want %b", deg, got, want)
		}
	}
	// An empty root set is legal and means "no roots", not "all roots".
	s2, err := NewSet(4, []Spec{{}, {Roots: []graph.VertexID{}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(0); v < 4; v++ {
		if m := s2.RootMask(v); m != 0b01 {
			t.Errorf("root %d: mask %b, want 01", v, m)
		}
	}
}

func TestGroupQueries(t *testing.T) {
	tri := compile(t, pattern.Triangle())
	p4 := compile(t, pattern.P4())
	qs := []Query{{Plan: tri}, {Plan: p4}, {Plan: tri}, {Plan: p4}, {Plan: tri}}
	groups := groupQueries(qs)
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %v", len(groups), groups)
	}
	if fmt.Sprint(groups[0]) != "[0 2 4]" || fmt.Sprint(groups[1]) != "[1 3]" {
		t.Fatalf("grouping: %v", groups)
	}

	// 65 compatible queries must split into word-sized chunks.
	big := make([]Query, 65)
	for i := range big {
		big[i] = Query{Plan: tri}
	}
	groups = groupQueries(big)
	if len(groups) != 2 || len(groups[0]) != 64 || len(groups[1]) != 1 {
		t.Fatalf("65-way split: %d groups, sizes %d/%d", len(groups), len(groups[0]), len(groups[len(groups)-1]))
	}
}
