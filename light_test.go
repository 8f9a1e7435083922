package light

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCountTriangleOnComplete(t *testing.T) {
	g := GenerateComplete(10)
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 120 {
		t.Fatalf("C(10,3) = 120, got %d", res.Matches)
	}
	if res.Duration <= 0 || len(res.Order) != 3 {
		t.Fatalf("result metadata missing: %+v", res)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 4, 1)
	for _, name := range CatalogNames() {
		p, err := PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for i, algo := range []Algorithm{LIGHT, SE, LM, MSC} {
			res, err := Count(g, p, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Matches
			} else if res.Matches != want {
				t.Fatalf("%s/%v: %d != %d", name, algo, res.Matches, want)
			}
		}
	}
}

func TestAllKernelsAgree(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 5, 2)
	p, _ := PatternByName("P2")
	var want uint64
	for i, k := range []Intersection{HybridBlock, Merge, MergeBlock, Galloping, Hybrid} {
		res, err := Count(g, p, Options{Intersection: k})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Matches
		} else if res.Matches != want {
			t.Fatalf("kernel %v: %d != %d", k, res.Matches, want)
		}
	}
}

func TestParallelAgreesWithSequential(t *testing.T) {
	g := GenerateBarabasiAlbert(400, 5, 3)
	p, _ := PatternByName("P4")
	seq, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Count(g, p, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches != par.Matches {
		t.Fatalf("parallel %d != sequential %d", par.Matches, seq.Matches)
	}
	// Buffers come from per-worker arenas carved on demand, so the
	// parallel footprint is at least the sequential one (every worker
	// that touched work grew its own slab) and never zero.
	if par.CandidateMemoryBytes < seq.CandidateMemoryBytes || par.CandidateMemoryBytes <= 0 {
		t.Fatalf("parallel memory accounting missing: par %d, seq %d",
			par.CandidateMemoryBytes, seq.CandidateMemoryBytes)
	}
	if par.Report.ArenaBytes != uint64(par.CandidateMemoryBytes) {
		t.Fatalf("report arena bytes %d != candidate memory %d",
			par.Report.ArenaBytes, par.CandidateMemoryBytes)
	}
}

func TestEnumerateVisitsAllMatches(t *testing.T) {
	g := GenerateComplete(7)
	p, _ := PatternByName("triangle")
	var count int
	res, err := Enumerate(g, p, Options{}, func(m []VertexID) bool {
		if len(m) != 3 || !(m[0] < m[1] && m[1] < m[2]) {
			t.Errorf("bad mapping %v", m)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(count) != res.Matches || count != 35 {
		t.Fatalf("visited %d, matches %d, want 35", count, res.Matches)
	}
	if _, err := Enumerate(g, p, Options{}, nil); err == nil {
		t.Fatal("nil visitor accepted")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := GenerateComplete(12)
	p, _ := PatternByName("triangle")
	n := 0
	res, err := Enumerate(g, p, Options{}, func(m []VertexID) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || n != 3 {
		t.Fatalf("stopped=%v n=%d", res.Stopped, n)
	}
}

func TestTimeLimitSurfaced(t *testing.T) {
	g := GenerateComplete(150)
	p, _ := PatternByName("clique5")
	_, err := Count(g, p, Options{TimeLimit: time.Nanosecond})
	if err != ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

func TestExplicitOrder(t *testing.T) {
	g := GenerateBarabasiAlbert(150, 4, 5)
	p, _ := PatternByName("P2")
	auto, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	manual, err := Count(g, p, Options{Order: []int{0, 2, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Matches != manual.Matches {
		t.Fatalf("explicit order changed the count: %d vs %d", manual.Matches, auto.Matches)
	}
	if _, err := Count(g, p, Options{Order: []int{1, 3, 0, 2}}); err == nil {
		t.Fatal("disconnected explicit order accepted")
	}
}

func TestNewGraphAndAccessors(t *testing.T) {
	g := NewGraph(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.MaxDegree() != 2 {
		t.Fatalf("bad graph: %v", g)
	}
	if g.MemoryBytes() <= 0 || g.String() == "" {
		t.Fatal("metadata accessors broken")
	}
	v := VertexID(0)
	if len(g.Neighbors(v)) != 2 || g.Degree(v) != 2 {
		t.Fatal("adjacency accessors broken")
	}
	if !g.HasEdge(g.Neighbors(0)[0], 0) {
		t.Fatal("HasEdge broken")
	}
}

func TestLoadEdgeListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("# test\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PatternByName("triangle")
	res, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatalf("triangle count = %d, want 1", res.Matches)
	}
	if _, err := LoadEdgeList(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n")); err != nil {
		t.Fatal(err)
	}
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern("disc", 4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
	p, err := NewPattern("paw", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != 4 || p.NumEdges() != 4 || p.Name() != "paw" || p.String() == "" {
		t.Fatalf("pattern accessors broken: %v", p)
	}
}

func TestNames(t *testing.T) {
	if LIGHT.String() != "LIGHT" || SE.String() != "SE" || LM.String() != "LM" || MSC.String() != "MSC" {
		t.Fatal("algorithm names")
	}
	if HybridBlock.String() != "HybridBlock" || Merge.String() != "Merge" {
		t.Fatal("kernel names")
	}
	if len(CatalogNames()) != 7 {
		t.Fatal("catalog size")
	}
}

func TestGenerators(t *testing.T) {
	if g := GenerateErdosRenyi(50, 100, 1); g.NumEdges() != 100 {
		t.Fatal("ER")
	}
	if g := GenerateRMAT(8, 4, 1); g.NumVertices() != 256 {
		t.Fatal("RMAT")
	}
	if g := GenerateGrid(3, 3); g.NumVertices() != 9 {
		t.Fatal("grid")
	}
}

func TestCSRRoundTripPublic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := GenerateBarabasiAlbert(300, 4, 9)
	if err := g.SaveCSR(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := PatternByName("triangle")
	a, err := Count(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(g2, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches != b.Matches {
		t.Fatalf("CSR round trip changed count: %d vs %d", a.Matches, b.Matches)
	}
	if _, err := LoadCSR(filepath.Join(dir, "none.csr")); err == nil {
		t.Fatal("missing CSR accepted")
	}
}

// TestGoldenCatalogCounts pins exact counts on a fixed seeded graph: a
// regression tripwire for any change to generators, ordering, symmetry
// breaking, planning, or the engines. The values were cross-validated
// against the brute-force reference at introduction.
func TestGoldenCatalogCounts(t *testing.T) {
	golden := map[string]uint64{
		"P1": 8832,
		"P2": 3859,
		"P3": 147,
		"P4": 112620,
		"P5": 814990,
		"P6": 1833,
		"P7": 30,
	}
	g := GenerateBarabasiAlbert(500, 5, 2026)
	for _, name := range CatalogNames() {
		p, _ := PatternByName(name)
		for _, algo := range []Algorithm{LIGHT, SE} {
			res, err := Count(g, p, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != golden[name] {
				t.Errorf("%s/%v: %d, golden %d", name, algo, res.Matches, golden[name])
			}
		}
	}
}
