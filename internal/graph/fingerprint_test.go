package graph

import "testing"

// starGraph builds a star: center 0 with the given number of leaves,
// plus optional chord edges among leaves.
func starGraph(leaves int, chords [][2]VertexID) *Graph {
	b := NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, VertexID(i))
	}
	for _, c := range chords {
		b.AddEdge(c[0], c[1])
	}
	return b.Build()
}

func TestFingerprintIdentifiesSnapshot(t *testing.T) {
	g1 := starGraph(50, [][2]VertexID{{1, 2}})
	g2 := starGraph(50, [][2]VertexID{{1, 2}})
	g3 := starGraph(50, [][2]VertexID{{1, 3}})
	if g1.Fingerprint() == 0 {
		t.Fatal("zero fingerprint")
	}
	if g1.Fingerprint() != g1.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical graphs, different fingerprints")
	}
	if g1.Fingerprint() == g3.Fingerprint() {
		t.Fatal("different graphs, same fingerprint")
	}
}
