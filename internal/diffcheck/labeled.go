package diffcheck

import (
	"fmt"
	"math/rand"

	"light"
)

// checkLabeled is the labeled-entry oracle: the case gets seed-derived
// vertex labels (one to three label values, on data and pattern
// vertices alike) and runs through the public labeled API, demanding
//
//   - CountLabeled at one worker and at cfg.Workers equal the
//     brute-force label-preserving count (embeddings divided by the
//     label-preserving automorphisms);
//   - EnumerateLabeled emits exactly that many mappings, each a
//     distinct labeled subgraph of the reference set.
//
// A label-preserving match's image edge set identifies it up to the
// label-preserving automorphisms (two matches with the same image
// differ by an automorphism, which preserves labels because each
// image vertex has one label), so the reference key set counts
// labeled subgraphs. Labels are a pure function of Case.Seed and
// vertex index, so the shrinker re-derives them on reduced cases.
func checkLabeled(c Case, cfg Config) *Discrepancy {
	fail := func(stage string, want, got uint64, detail string) *Discrepancy {
		return &Discrepancy{Case: c, Stage: stage, Want: want, Got: got, Detail: detail}
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x1abe1))
	k := 1 + rng.Intn(3)
	glab := make([]uint16, c.GraphN)
	for v := range glab {
		glab[v] = uint16(rng.Intn(k))
	}
	plab := make([]uint16, c.PatternN)
	for u := range plab {
		plab[u] = uint16(rng.Intn(k))
	}

	// Labeled embeddings are a subset of the unlabeled ones, which
	// RunCase already found under the cap.
	ref := countLabeledEmbeddings(c.GraphN, c.GraphEdges, glab, c.PatternN, c.PatternEdges, plab, cfg.MaxEmbeddings, true)
	aut := labeledAutCount(c.PatternN, c.PatternEdges, plab)
	if aut == 0 || ref.Embeddings%aut != 0 {
		return fail("labeled/aut-divisibility", 0, ref.Embeddings%aut,
			fmt.Sprintf("labeled embeddings=%d not divisible by |Aut_L|=%d", ref.Embeddings, aut))
	}
	want := ref.Embeddings / aut
	if got := uint64(len(ref.Keys)); got != want {
		return fail("labeled/key-count", want, got, "distinct labeled image edge sets != embeddings/|Aut_L|")
	}

	pairs := make([][2]light.VertexID, len(c.GraphEdges))
	for i, e := range c.GraphEdges {
		pairs[i] = [2]light.VertexID{light.VertexID(e[0]), light.VertexID(e[1])}
	}
	g := light.NewGraph(c.GraphN, pairs)
	// NewGraph relabels into degree order: carry the labels across and
	// keep the inverse so emitted mappings compare in case numbering.
	labels := make([]light.Label, g.NumVertices())
	orig := make([]uint32, g.NumVertices())
	for v := 0; v < c.GraphN; v++ {
		nv := g.MapVertex(light.VertexID(v))
		labels[nv] = glab[v]
		orig[nv] = uint32(v)
	}
	lg, err := light.WithLabels(g, labels)
	if err != nil {
		return fail("labeled/graph", want, 0, err.Error())
	}
	p, err := light.NewPattern("case", c.PatternN, c.PatternEdges)
	if err != nil {
		return fail("labeled/pattern", want, 0, err.Error())
	}
	lp, err := light.WithPatternLabels(p, plab)
	if err != nil {
		return fail("labeled/pattern", want, 0, err.Error())
	}

	for _, workers := range []int{1, cfg.Workers} {
		stage := fmt.Sprintf("labeled/count/workers=%d", workers)
		res, err := light.CountLabeled(lg, lp, light.Options{Workers: workers})
		if err != nil {
			return fail(stage, want, 0, err.Error())
		}
		if res.Matches != want {
			return fail(stage, want, res.Matches, fmt.Sprintf("pattern labels %v, %d label values", plab, k))
		}
	}

	got := map[string]bool{}
	var emitted uint64
	_, err = light.EnumerateLabeled(lg, lp, light.Options{Workers: cfg.Workers}, func(m []light.VertexID) bool {
		emitted++
		got[imageKey(c.PatternEdges, func(u int) uint32 { return orig[m[u]] })] = true
		return true
	})
	if err != nil {
		return fail("labeled/enumerate", want, 0, err.Error())
	}
	if emitted != want || uint64(len(got)) != want {
		return fail("labeled/enumerate", want, emitted,
			fmt.Sprintf("%d distinct labeled subgraphs among the emitted mappings", len(got)))
	}
	for key := range got {
		if !ref.Keys[key] {
			return fail("labeled/enumerate", want, emitted, "emitted subgraph not in labeled reference set: "+key)
		}
	}
	return nil
}
