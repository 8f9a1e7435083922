package main

import (
	"math/rand"

	"light"
)

// The benchmark generates every input itself from --seed; the program
// under test receives only the generated edge lists, patterns and
// requests, never the seed.

// subSeed derives an independent stream seed from the run seed
// (splitmix64 finalizer), so the graph, each client's op mix and the
// writer's batches do not share random draws.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream identifiers for subSeed.
const (
	streamWriter = iota
	streamProbe
	streamRelabel
	streamClient // + client index
)

// structureSeed fixes the structure of every workload graph. A BA
// graph's hub degrees, and with them the work of P1 or P6 and the cost
// of edge batches through the hubs, vary by about ±10% from seed to
// seed (P1 matches on BA(20000, 8) ranged 296k–351k over five seeds),
// which would swamp the benchmark's bounds. So each run gets a copy of
// one structure per graph size, relabeled and reshuffled by its seed.
const structureSeed = 1

// baStructure is the fixed structure of a workload graph: the
// repository's own generator, light.GenerateBarabasiAlbert(n, k,
// structureSeed).
func baStructure(n, k int) *light.Graph {
	return light.GenerateBarabasiAlbert(n, k, structureSeed)
}

// graphEdges is the edge list of a workload graph: base relabeled by
// seed.
func graphEdges(base *light.Graph, seed int64) [][2]light.VertexID {
	return relabel(edgeList(base), base.NumVertices(), seed)
}

// edgeList reads g's current edges, each once as (u, v) with u < v.
func edgeList(g *light.Graph) [][2]light.VertexID {
	out := make([][2]light.VertexID, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(light.VertexID(u)) {
			if light.VertexID(u) < v {
				out = append(out, [2]light.VertexID{light.VertexID(u), v})
			}
		}
	}
	return out
}

// relabel renames every vertex of edges through a random permutation
// of 0..n-1 and shuffles the edge list, both drawn from seed: an
// isomorphic copy, so every count is the same for all seeds and the
// work nearly so (degree-order ties break differently), while the
// program still receives different input.
func relabel(edges [][2]light.VertexID, n int, seed int64) [][2]light.VertexID {
	rng := rand.New(rand.NewSource(subSeed(seed, streamRelabel)))
	perm := rng.Perm(n)
	out := make([][2]light.VertexID, len(edges))
	for i, e := range edges {
		out[i] = [2]light.VertexID{light.VertexID(perm[e[0]]), light.VertexID(perm[e[1]])}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// edgeSet is the benchmark's own model of a mutable graph's edges, in
// the graph's result numbering: the writer draws batches from it, and
// the final graph is rebuilt from it to check the served counts.
type edgeSet struct {
	n    int
	list []uint64 // u<<32 | v with u < v
	pos  map[uint64]int
}

func edgeKey(u, v light.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// newEdgeSet reads g's current edges.
func newEdgeSet(g *light.Graph) *edgeSet {
	s := &edgeSet{n: g.NumVertices(), pos: make(map[uint64]int, g.NumEdges())}
	for _, e := range edgeList(g) {
		s.insert(edgeKey(e[0], e[1]))
	}
	return s
}

func (s *edgeSet) insert(k uint64) {
	s.pos[k] = len(s.list)
	s.list = append(s.list, k)
}

func (s *edgeSet) delete(k uint64) {
	i := s.pos[k]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, k)
}

// pairs returns the edges as an edge list.
func (s *edgeSet) pairs() [][2]light.VertexID {
	out := make([][2]light.VertexID, len(s.list))
	for i, k := range s.list {
		out[i] = [2]light.VertexID{light.VertexID(k >> 32), light.VertexID(k)}
	}
	return out
}

// edgeBatch is one writer request: edges to add and remove, and whether
// to compact afterwards.
type edgeBatch struct {
	Add     [][2]light.VertexID `json:"add"`
	Remove  [][2]light.VertexID `json:"remove"`
	Compact bool                `json:"compact,omitempty"`
}

// next draws a batch of adds new edges between distinct random vertices
// and removes existing edges, all distinct, and applies it to the
// model. Equal adds and removes keep the edge count steady.
func (s *edgeSet) next(rng *rand.Rand, adds, removes int) edgeBatch {
	var b edgeBatch
	for len(b.Remove) < removes {
		k := s.list[rng.Intn(len(s.list))]
		s.delete(k)
		b.Remove = append(b.Remove, [2]light.VertexID{light.VertexID(k >> 32), light.VertexID(k)})
	}
	for len(b.Add) < adds {
		u, v := light.VertexID(rng.Intn(s.n)), light.VertexID(rng.Intn(s.n))
		if u == v {
			continue
		}
		k := edgeKey(u, v)
		if _, ok := s.pos[k]; ok || removedIn(b.Remove, k) {
			continue
		}
		s.insert(k)
		b.Add = append(b.Add, [2]light.VertexID{u, v})
	}
	return b
}

func removedIn(removed [][2]light.VertexID, k uint64) bool {
	for _, e := range removed {
		if edgeKey(e[0], e[1]) == k {
			return true
		}
	}
	return false
}

// batchSchedule sizes the edge batches of one graph: Size adds plus
// Size removes per batch, compacting on every CompactEvery-th batch.
type batchSchedule struct {
	Size, CompactEvery int
}

// compactEvery is an assumption, not a measured workload: one batch in
// five compacts, so compactions are a fifth of the writes.
// write_p50_ms then times plain batches and write_p90_ms falls inside
// the compactions, and a change in either cost moves a bounded metric.
const compactEvery = 5

// probeBatches is how many edge batches the post-window write probe of
// a workload without a writer times.
const probeBatches = 240

// serveOp is one request of the serve-small mix.
type serveOp struct {
	Kind    string // "query", "batch" or "enumerate"
	Pattern string
	NoCache bool
}

// The serve-small mix comes in blocks of mixBlock ops with a fixed
// count of each kind, shuffled by the client's seed, so the shares do
// not drift between runs. The shares are assumptions, not measured
// traffic: 70% cached /query, so the median is a cache hit (the
// per-request cost of HTTP, JSON, cache and admission); 22% no_cache
// /query, so with the batches and enumerates 30% of the ops run the
// engine and p90 falls inside engine runs; 4% each of /batch and
// /enumerate, enough to drive lanes and row streaming every block.
const (
	mixBlock     = 50
	mixBatch     = 2
	mixEnumerate = 2
	mixMiss      = 11
)

// servePatterns are the /query and /enumerate patterns of the serve
// workloads.
var servePatterns = []string{"triangle", "P2", "P3", "P7"}

// opStream is one serve-small client's seeded op sequence.
type opStream struct {
	rng   *rand.Rand
	block []serveOp
}

func newOpStream(seed int64, client int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(subSeed(seed, streamClient+uint64(client))))}
}

func (s *opStream) next() serveOp {
	if len(s.block) == 0 {
		s.block = make([]serveOp, 0, mixBlock)
		for i := 0; i < mixBlock; i++ {
			p := servePatterns[s.rng.Intn(len(servePatterns))]
			switch {
			case i < mixBatch:
				s.block = append(s.block, serveOp{Kind: "batch"})
			case i < mixBatch+mixEnumerate:
				s.block = append(s.block, serveOp{Kind: "enumerate", Pattern: p})
			case i < mixBatch+mixEnumerate+mixMiss:
				s.block = append(s.block, serveOp{Kind: "query", Pattern: p, NoCache: true})
			default:
				s.block = append(s.block, serveOp{Kind: "query", Pattern: p})
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	op := s.block[0]
	s.block = s.block[1:]
	return op
}
