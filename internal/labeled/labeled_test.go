// The counting tests drive labeled matching through the public API
// (light.CountLabeled / light.EnumerateLabeled), which plans from
// SymmetryBreaking's partial order and filters with Filter, and check it
// against a brute-force label-preserving matcher that shares no code
// with either.
package labeled_test

import (
	"math/rand"
	"testing"

	"light"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/labeled"
	"light/internal/pattern"
)

// labeledView is what the brute-force matcher reads of a labeled graph.
type labeledView struct {
	n       int
	hasEdge func(a, b int) bool
	label   func(v int) labeled.Label
}

// bruteEmbeddings calls emit for every label-preserving injective
// homomorphism of the pattern (edges pe, labels pl) into g.
func bruteEmbeddings(pe [][2]pattern.Vertex, pl []labeled.Label, g labeledView, emit func(m []int)) {
	n := len(pl)
	assigned := make([]int, n)
	used := make([]bool, g.n)
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			emit(assigned)
			return
		}
		for v := 0; v < g.n; v++ {
			if used[v] || g.label(v) != pl[u] {
				continue
			}
			ok := true
			for _, e := range pe {
				a, b := e[0], e[1]
				if b == u {
					a, b = b, a
				}
				if a == u && b < u && !g.hasEdge(v, assigned[b]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assigned[u] = v
			used[v] = true
			rec(u + 1)
			used[v] = false
		}
	}
	rec(0)
}

// bruteCount is the reference labeled count: label-preserving
// embeddings divided by the label-preserving automorphisms (the
// pattern's label-preserving embeddings into itself).
func bruteCount(p *pattern.Pattern, pl []labeled.Label, g labeledView) uint64 {
	count := func(g labeledView) uint64 {
		var k uint64
		bruteEmbeddings(p.Edges(), pl, g, func([]int) { k++ })
		return k
	}
	self := labeledView{
		n:       p.NumVertices(),
		hasEdge: func(a, b int) bool { return p.HasEdge(a, b) },
		label:   func(v int) labeled.Label { return pl[v] },
	}
	return count(g) / count(self)
}

// publicView builds the public labeled graph and its brute-force view.
func publicView(t *testing.T, g *light.Graph, labels []light.Label) (*light.LabeledGraph, labeledView) {
	t.Helper()
	lg, err := light.WithLabels(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	return lg, labeledView{
		n:       g.NumVertices(),
		hasEdge: func(a, b int) bool { return g.HasEdge(light.VertexID(a), light.VertexID(b)) },
		label:   func(v int) labeled.Label { return labels[v] },
	}
}

// publicPattern returns the named pattern as a public labeled pattern.
func publicPattern(t *testing.T, name string, labels []light.Label) *light.LabeledPattern {
	t.Helper()
	p, err := light.PatternByName(name)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := light.WithPatternLabels(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// internalPattern returns the named pattern the brute force reads.
func internalPattern(t *testing.T, name string) *pattern.Pattern {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomLabels assigns each vertex one of k labels.
func randomLabels(rng *rand.Rand, n, k int) []labeled.Label {
	out := make([]labeled.Label, n)
	for i := range out {
		out[i] = labeled.Label(rng.Intn(k))
	}
	return out
}

func countLabeled(t *testing.T, g *light.LabeledGraph, p *light.LabeledPattern, opts light.Options) uint64 {
	t.Helper()
	res, err := light.CountLabeled(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func TestValidation(t *testing.T) {
	g := gen.Complete(4)
	if _, err := labeled.NewGraph(g, []labeled.Label{0, 1}); err == nil {
		t.Error("short label slice accepted")
	}
	if _, err := labeled.NewPattern(pattern.Triangle(), []labeled.Label{0}); err == nil {
		t.Error("short pattern labels accepted")
	}
}

func TestLabelPreservingAutomorphisms(t *testing.T) {
	// Triangle with labels (0,0,1): only the swap of the two 0-vertices
	// survives.
	p, err := labeled.NewPattern(pattern.Triangle(), []labeled.Label{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Automorphisms()); got != 2 {
		t.Fatalf("|Aut_L| = %d, want 2", got)
	}
	po := p.SymmetryBreaking()
	if pairs := po.Pairs(); len(pairs) != 1 || pairs[0] != [2]pattern.Vertex{0, 1} {
		t.Fatalf("partial order = %v, want [0<1]", po)
	}
	// All distinct labels: trivial group, no constraints.
	p2, err := labeled.NewPattern(pattern.Triangle(), []labeled.Label{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Automorphisms()) != 1 || !p2.SymmetryBreaking().Empty() {
		t.Fatal("distinct labels should kill all symmetry")
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"triangle", "P1", "P2", "path3", "P4"}
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(3)
		g := light.GenerateErdosRenyi(25+rng.Intn(15), 60+rng.Intn(60), int64(trial))
		lg, view := publicView(t, g, randomLabels(rng, g.NumVertices(), k))
		name := names[rng.Intn(len(names))]
		ip := internalPattern(t, name)
		pl := randomLabels(rng, ip.NumVertices(), k)
		want := bruteCount(ip, pl, view)
		if got := countLabeled(t, lg, publicPattern(t, name, pl), light.Options{}); got != want {
			t.Fatalf("trial %d (%s, k=%d): got %d, want %d", trial, name, k, got, want)
		}
	}
}

func TestUniformLabelsEqualUnlabeled(t *testing.T) {
	// With a single label, labeled counting must equal the unlabeled
	// engine's count exactly.
	g := light.GenerateBarabasiAlbert(120, 4, 5)
	lg, view := publicView(t, g, make([]light.Label, g.NumVertices()))
	for _, name := range []string{"P1", "P2", "P3", "P4"} {
		ip := internalPattern(t, name)
		pl := make([]light.Label, ip.NumVertices())
		p, _ := light.PatternByName(name)
		plain, err := light.Count(g, p, light.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := countLabeled(t, lg, publicPattern(t, name, pl), light.Options{})
		if want := bruteCount(ip, pl, view); got != want || got != plain.Matches {
			t.Fatalf("%s: labeled %d, brute %d, unlabeled %d", name, got, want, plain.Matches)
		}
	}
}

func TestAllModesAgreeLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := light.GenerateBarabasiAlbert(200, 4, 3)
	lg, _ := publicView(t, g, randomLabels(rng, g.NumVertices(), 3))
	lp := publicPattern(t, "P2", []light.Label{0, 1, 0, 1})
	want := countLabeled(t, lg, lp, light.Options{Algorithm: light.SE})
	for _, alg := range []light.Algorithm{light.LM, light.MSC, light.LIGHT} {
		if got := countLabeled(t, lg, lp, light.Options{Algorithm: alg}); got != want {
			t.Fatalf("%s: %d != SE %d", alg, got, want)
		}
	}
}

func TestParallelLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := light.GenerateBarabasiAlbert(400, 5, 7)
	lg, _ := publicView(t, g, randomLabels(rng, g.NumVertices(), 2))
	lp := publicPattern(t, "triangle", []light.Label{0, 0, 1})
	seq := countLabeled(t, lg, lp, light.Options{})
	if par := countLabeled(t, lg, lp, light.Options{Workers: 4}); par != seq {
		t.Fatalf("4 workers %d != 1 worker %d", par, seq)
	}
}

func TestEnumerateLabeled(t *testing.T) {
	// Star with distinct hub label: matches are exactly hub + leaf pairs.
	g := light.NewGraph(6, [][2]light.VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	labels := make([]light.Label, 6)
	labels[g.MapVertex(0)] = 1
	lg, _ := publicView(t, g, labels)
	lp := publicPattern(t, "path2", []light.Label{1, 0}) // hub-leaf edge
	count := 0
	res, err := light.EnumerateLabeled(lg, lp, light.Options{}, func(m []light.VertexID) bool {
		if lg.Label(m[0]) != 1 || lg.Label(m[1]) != 0 {
			t.Errorf("label violated in %v", m)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 5 || count != 5 {
		t.Fatalf("matches = %d, visited %d, want 5", res.Matches, count)
	}
}

func TestNLFFilterSoundAndEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := gen.BarabasiAlbert(150, 4, 2)
	g, err := labeled.NewGraph(base, randomLabels(rng, base.NumVertices(), 4))
	if err != nil {
		t.Fatal(err)
	}
	pl := []labeled.Label{0, 1, 2}
	p, err := labeled.NewPattern(pattern.Triangle(), pl)
	if err != nil {
		t.Fatal(err)
	}
	filter := labeled.Filter(g, p)
	// Soundness: every vertex of a real match passes the filter.
	view := labeledView{
		n:       base.NumVertices(),
		hasEdge: func(a, b int) bool { return base.HasEdge(graph.VertexID(a), graph.VertexID(b)) },
		label:   func(v int) labeled.Label { return g.Labels[v] },
	}
	matches := 0
	bruteEmbeddings(p.P.Edges(), pl, view, func(m []int) {
		matches++
		for u, v := range m {
			if !filter(u, graph.VertexID(v)) {
				t.Fatalf("filter rejected matched vertex %d→%d", u, v)
			}
		}
	})
	if matches == 0 {
		t.Fatal("no matches: the soundness check checked nothing")
	}
	// Effectiveness: it must reject vertices of the wrong label.
	for v := 0; v < base.NumVertices(); v++ {
		if g.Labels[v] != p.Labels[0] && filter(0, graph.VertexID(v)) {
			t.Fatalf("filter passed wrong-label vertex %d", v)
		}
	}
}
