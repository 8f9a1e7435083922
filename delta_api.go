package light

import (
	"context"
	"errors"
	"time"

	"light/internal/delta"
	"light/internal/graph"
)

// DeltaResult reports a CountDelta run: how the match count changed
// between two snapshots of the same graph.
type DeltaResult struct {
	// Gained is the number of matches present in the `to` snapshot that
	// use at least one edge added between the snapshots.
	Gained uint64
	// Lost is the number of matches present in the `from` snapshot that
	// use at least one edge removed between the snapshots.
	Lost uint64
	// Net is Gained - Lost: count(to) == count(from) + Net.
	Net int64
	// AddedEdges and RemovedEdges are the effective edge-delta sizes
	// between the snapshots (after cancellation across batches).
	AddedEdges   int
	RemovedEdges int
	// FromGeneration and ToGeneration identify the two snapshots.
	FromGeneration uint64
	ToGeneration   uint64
	// Duration is the wall-clock time of the two restricted
	// enumerations.
	Duration time.Duration
}

// CountDelta counts how the number of matches of p changed between two
// snapshots of g, without re-enumerating the whole graph: only matches
// incident to the changed edges are visited. Candidates are restricted
// to the ball of radius |V(P)|-1 around the changed edges' endpoints (a
// match using a changed edge cannot stray further), and each visited
// match is counted only if its image uses a changed edge. The identity
//
//	count(to) == count(from) + result.Net
//
// holds exactly: a match is gained iff it exists in `to` and uses an
// added edge, lost iff it exists in `from` and uses a removed edge, and
// matches using neither survive unchanged in both views.
//
// Both snapshots must come from g (in either generation order — Net is
// simply negative when `to` predates `from`'s additions). Options apply
// to the two underlying restricted enumerations; Snapshot, TailCount,
// CheckpointPath, and ResumeFrom are rejected, and Options.Filter, when
// set, narrows both enumerations (the identity then holds for the
// filtered counts).
func CountDelta(g *Graph, p *Pattern, from, to *Snapshot, opts Options) (DeltaResult, error) {
	return CountDeltaContext(context.Background(), g, p, from, to, opts)
}

// CountDeltaContext is CountDelta under a context.
func CountDeltaContext(ctx context.Context, g *Graph, p *Pattern, from, to *Snapshot, opts Options) (DeltaResult, error) {
	var dr DeltaResult
	if from == nil || to == nil {
		return dr, errNilSnapshot
	}
	if from.owner != g || to.owner != g {
		return dr, errors.New("light: CountDelta snapshots belong to a different Graph")
	}
	switch {
	case opts.Snapshot != nil:
		return dr, errors.New("light: CountDelta does not take Options.Snapshot (pass the snapshots directly)")
	case opts.TailCount:
		return dr, errors.New("light: CountDelta does not support TailCount (every match image is inspected)")
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return dr, errors.New("light: CountDelta does not support checkpointing")
	}
	added, removed := delta.Diff(from.st.base, from.st.ov, to.st.base, to.st.ov)
	dr.AddedEdges, dr.RemovedEdges = len(added), len(removed)
	dr.FromGeneration, dr.ToGeneration = from.st.gen, to.st.gen
	start := time.Now()
	if len(added) > 0 {
		n, err := countTouching(ctx, g, p, to, added, opts)
		if err != nil {
			return dr, err
		}
		dr.Gained = n
	}
	if len(removed) > 0 {
		n, err := countTouching(ctx, g, p, from, removed, opts)
		if err != nil {
			return dr, err
		}
		dr.Lost = n
	}
	dr.Net = int64(dr.Gained) - int64(dr.Lost)
	dr.Duration = time.Since(start)
	return dr, nil
}

// countTouching counts matches of p in the pinned snapshot whose image
// uses at least one edge from `edges`. The enumeration is restricted to
// the ball of radius |V(P)|-1 around the edges' endpoints via
// Options.Filter — sound because every vertex of a connected match
// using one of the edges lies within pattern-diameter hops of an
// endpoint — and the per-match edge test is automorphism-invariant, so
// symmetry breaking counts each gained/lost subgraph exactly once.
func countTouching(ctx context.Context, g *Graph, p *Pattern, snap *Snapshot, edges []delta.Edge, opts Options) (uint64, error) {
	edgeSet := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		edgeSet[uint64(e.U)<<32|uint64(e.V)] = struct{}{}
	}
	ball := deltaBall(snap.st, edges, p.NumVertices()-1)

	ropts := opts
	ropts.Snapshot = snap
	userF := opts.Filter
	ropts.Filter = func(u int, v VertexID) bool {
		if int(v) >= len(ball) || !ball[v] {
			return false
		}
		return userF == nil || userF(u, v)
	}

	pEdges := p.p.Edges()
	var count uint64
	visit := func(m []VertexID) bool {
		for _, pe := range pEdges {
			a, b := m[pe[0]], m[pe[1]]
			if a > b {
				a, b = b, a
			}
			if _, hit := edgeSet[uint64(a)<<32|uint64(b)]; hit {
				count++
				break
			}
		}
		return true
	}
	// The scheduler serializes the visitor at every worker count, so the
	// plain counter is safe.
	if _, err := EnumerateContext(ctx, g, p, ropts, visit); err != nil {
		return 0, err
	}
	return count, nil
}

// deltaBall marks every vertex within `radius` hops (in the snapshot's
// view) of any delta edge's endpoint — the sound candidate region for
// matches using a delta edge.
func deltaBall(st *snapshotState, edges []delta.Edge, radius int) []bool {
	n := st.numVertices()
	ball := make([]bool, n)
	var frontier []graph.VertexID
	for _, e := range edges {
		for _, v := range [2]graph.VertexID{e.U, e.V} {
			if int(v) < n && !ball[v] {
				ball[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	neighbors := func(v graph.VertexID) []graph.VertexID {
		if st.ov != nil {
			return st.ov.Neighbors(v)
		}
		return st.base.Neighbors(v)
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, u := range neighbors(v) {
				if !ball[u] {
					ball[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return ball
}
