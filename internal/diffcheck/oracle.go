package diffcheck

import (
	"sort"
	"strconv"
	"strings"
)

// The reference oracle is a deliberately naive backtracking matcher
// that shares no code with the engine: adjacency is a slice of sorted
// neighbor lists built directly from an edge list, candidate generation
// is "neighbors of one assigned anchor", and there is no symmetry
// breaking, no candidate caching, no plan. It counts *embeddings*
// (injective edge-preserving maps, all |Aut(P)| of them per subgraph)
// and optionally collects the set of distinct image edge sets, which
// identifies subgraphs up to automorphism. The engine's symmetry-broken
// match count must then satisfy matches × |Aut(P)| == embeddings, and
// its emitted mappings must cover exactly the oracle's image sets.

type oracleResult struct {
	Embeddings uint64
	Keys       map[string]bool // image-edge-set keys; nil unless requested
	Capped     bool            // true when the embedding cap was hit
}

type oracle struct {
	adj    [][]uint32 // data adjacency, sorted
	pn     int
	padj   [][]int  // pattern adjacency
	pedges [][2]int // pattern edges, for image keys
	order  []int    // BFS assignment order over pattern vertices
	pos    []int    // pos[u] = index of u in order, -1 if later
	limit  uint64
	keys   map[string]bool
	count  uint64
	capped bool
	assign []uint32
	used   map[uint32]bool
	// glab and plab, when non-nil, restrict embeddings to those mapping
	// every pattern vertex u to a data vertex v with glab[v] == plab[u].
	glab, plab []uint16
}

// countEmbeddings runs the reference matcher. graphN/graphEdges
// describe the data graph (in whatever labeling the caller wants keys
// expressed), patN/patEdges the pattern. The pattern must be connected.
func countEmbeddings(graphN int, graphEdges [][2]uint32, patN int, patEdges [][2]int, limit uint64, collectKeys bool) oracleResult {
	return countLabeledEmbeddings(graphN, graphEdges, nil, patN, patEdges, nil, limit, collectKeys)
}

// countLabeledEmbeddings is countEmbeddings restricted to
// label-preserving maps: pattern vertex u only maps to data vertices v
// with graphLabels[v] == patLabels[u]. Nil labels disable the check.
func countLabeledEmbeddings(graphN int, graphEdges [][2]uint32, graphLabels []uint16,
	patN int, patEdges [][2]int, patLabels []uint16, limit uint64, collectKeys bool) oracleResult {
	o := &oracle{
		glab:   graphLabels,
		plab:   patLabels,
		adj:    make([][]uint32, graphN),
		pn:     patN,
		padj:   make([][]int, patN),
		pedges: patEdges,
		limit:  limit,
		assign: make([]uint32, patN),
		used:   make(map[uint32]bool, patN),
	}
	for _, e := range graphEdges {
		o.adj[e[0]] = append(o.adj[e[0]], e[1])
		o.adj[e[1]] = append(o.adj[e[1]], e[0])
	}
	for i := range o.adj {
		sort.Slice(o.adj[i], func(a, b int) bool { return o.adj[i][a] < o.adj[i][b] })
		// Dedupe: callers may pass edge lists with duplicates (autCount
		// feeds raw pattern edges back in as a data graph), and a
		// duplicated neighbor would double-count every embedding through
		// it.
		w := 0
		for j, v := range o.adj[i] {
			if j == 0 || v != o.adj[i][j-1] {
				o.adj[i][w] = v
				w++
			}
		}
		o.adj[i] = o.adj[i][:w]
	}
	seenEdge := map[[2]int]bool{}
	for _, e := range patEdges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b || seenEdge[[2]int{a, b}] {
			continue
		}
		seenEdge[[2]int{a, b}] = true
		o.padj[a] = append(o.padj[a], b)
		o.padj[b] = append(o.padj[b], a)
	}
	// BFS assignment order from pattern vertex 0; every later vertex has
	// an already-assigned neighbor to anchor its candidate set.
	o.pos = make([]int, patN)
	for i := range o.pos {
		o.pos[i] = -1
	}
	o.order = []int{0}
	o.pos[0] = 0
	for qi := 0; qi < len(o.order); qi++ {
		for _, w := range o.padj[o.order[qi]] {
			if o.pos[w] < 0 {
				o.pos[w] = len(o.order)
				o.order = append(o.order, w)
			}
		}
	}
	if collectKeys {
		o.keys = map[string]bool{}
	}
	if len(o.order) == patN { // connected; else caller screens with patternConnected
		o.extend(0)
	}
	return oracleResult{Embeddings: o.count, Keys: o.keys, Capped: o.capped}
}

func (o *oracle) extend(i int) {
	if o.capped {
		return
	}
	if i == o.pn {
		o.count++
		if o.count > o.limit {
			o.capped = true
			return
		}
		if o.keys != nil {
			o.keys[o.imageKey()] = true
		}
		return
	}
	u := o.order[i]
	var cands []uint32
	if i == 0 {
		cands = make([]uint32, len(o.adj))
		for v := range o.adj {
			cands[v] = uint32(v)
		}
	} else {
		// Anchor on any already-assigned pattern neighbor; BFS order
		// guarantees one exists.
		for _, w := range o.padj[u] {
			if o.pos[w] < i {
				cands = o.adj[o.assign[w]]
				break
			}
		}
	}
	for _, v := range cands {
		if o.used[v] || (o.plab != nil && o.glab[v] != o.plab[u]) {
			continue
		}
		ok := true
		for _, w := range o.padj[u] {
			if o.pos[w] < i && !o.hasEdge(o.assign[w], v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		o.assign[u] = v
		o.used[v] = true
		o.extend(i + 1)
		delete(o.used, v)
		if o.capped {
			return
		}
	}
}

func (o *oracle) hasEdge(a, b uint32) bool {
	nb := o.adj[a]
	j := sort.Search(len(nb), func(k int) bool { return nb[k] >= b })
	return j < len(nb) && nb[j] == b
}

// imageKey canonicalizes the current embedding's image edge set. Two
// embeddings produce the same key iff they differ by a pattern
// automorphism, so the key set identifies subgraphs.
func (o *oracle) imageKey() string {
	return imageKey(o.pedges, func(u int) uint32 { return o.assign[u] })
}

// imageKey renders the image of the pattern edge set under the mapping
// as a canonical string: normalized endpoint pairs, sorted, joined.
// Shared by the oracle and by RunCase's check of engine-emitted
// mappings, so both sides canonicalize identically.
func imageKey(pedges [][2]int, mapTo func(u int) uint32) string {
	pairs := make([][2]uint32, 0, len(pedges))
	for _, e := range pedges {
		x, y := mapTo(e[0]), mapTo(e[1])
		if x > y {
			x, y = y, x
		}
		pairs = append(pairs, [2]uint32{x, y})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	var sb strings.Builder
	for i, pr := range pairs {
		if i > 0 && pairs[i-1] == pr {
			continue // duplicate pattern edges map to one image edge
		}
		sb.WriteString(strconv.FormatUint(uint64(pr[0]), 10))
		sb.WriteByte('-')
		sb.WriteString(strconv.FormatUint(uint64(pr[1]), 10))
		sb.WriteByte(';')
	}
	return sb.String()
}

// autCount counts the pattern's automorphisms with the same reference
// matcher, by embedding the pattern into itself: an injective
// edge-preserving self-map of a finite graph is a bijection whose
// inverse also preserves edges, i.e. an automorphism. Independent of
// pattern.Automorphisms.
func autCount(patN int, patEdges [][2]int) uint64 {
	return labeledAutCount(patN, patEdges, nil)
}

// labeledAutCount is autCount over the label-preserving automorphisms:
// the pattern's label-preserving embeddings into itself.
func labeledAutCount(patN int, patEdges [][2]int, patLabels []uint16) uint64 {
	self := make([][2]uint32, len(patEdges))
	for i, e := range patEdges {
		self[i] = [2]uint32{uint32(e[0]), uint32(e[1])}
	}
	r := countLabeledEmbeddings(patN, self, patLabels, patN, patEdges, patLabels, 1<<40, false)
	return r.Embeddings
}
