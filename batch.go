package light

import (
	"context"
	"errors"
	"fmt"
	"time"

	"light/internal/graph"
	"light/internal/lanes"
)

// BatchQuery is one member of a CountBatch: a pattern plus optional
// query-specific narrowing. Queries with the same pattern (and batch
// options) compile to structurally identical plans and are packed into
// one bit-parallel lane group — the engine walks their shared search
// tree once, so a batch of overlapping queries costs far less than
// running them one by one.
type BatchQuery struct {
	// Pattern is the pattern to enumerate (required).
	Pattern *Pattern
	// Roots, when non-nil, restricts this query to matches whose root
	// pattern vertex (the first vertex of the chosen enumeration
	// order) maps into this set of data vertices. IDs are in the
	// graph's degree-ordered numbering, as returned in results and by
	// Graph.MapVertex.
	Roots []VertexID
	// MinDegree, when positive, restricts this query to matches using
	// only data vertices of at least this degree — the degree-profile
	// analytics knob. Equivalent to a solo Count whose Filter rejects
	// lower-degree vertices, but evaluated bit-parallel across the
	// whole lane word in one ladder lookup.
	MinDegree int
	// Filter, when non-nil, must approve every (pattern vertex, data
	// vertex) assignment for this query; same contract as
	// Options.Filter.
	Filter func(u int, v VertexID) bool
}

// BatchResult reports a CountBatch run.
type BatchResult struct {
	// Queries holds one Result per input query, in order. Counters
	// (Matches, Nodes, Intersections, and each Report's engine
	// counters) are exactly what a solo run of that query would
	// report; Duration and CandidateMemoryBytes describe the shared
	// batch run and repeat on every entry.
	Queries []Result
	// Groups is how many shared traversals (lane groups) the batch
	// compiled into — batches of one pattern family run in a single
	// pass.
	Groups int
	// Workers is the largest worker pool any group ran with.
	Workers int
	// Duration is the whole batch's wall-clock time.
	Duration time.Duration
	// Degradations lists graceful-degradation events (reduced
	// admission, shed workers, arena pressure) for the batch.
	Degradations []string
}

// CountBatch evaluates up to hundreds of queries against one graph in
// bit-parallel lanes (64 queries per machine word per group),
// returning each query's exact individual count and counters. All
// queries run under opts' shared configuration (algorithm, kernel,
// workers, time limit, governor); per-query state lives in each
// BatchQuery. Under a Governor the whole batch is admitted once —
// one grant covers every lane group.
//
// Options.Filter, TailCount, CheckpointPath, and ResumeFrom do not
// apply to batches (per-query filters belong in BatchQuery; lane
// batches always take the full leaf loop) and are rejected.
func CountBatch(g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	return CountBatchContext(context.Background(), g, queries, opts)
}

// CountBatchContext is CountBatch under a context: cancellation stops
// the batch at its next poll and returns partial, non-attributable
// results with the context's error.
func CountBatchContext(ctx context.Context, g *Graph, queries []BatchQuery, opts Options) (BatchResult, error) {
	switch {
	case opts.Filter != nil:
		return BatchResult{}, errors.New("light: CountBatch does not take Options.Filter; set per-query BatchQuery.Filter instead")
	case opts.TailCount:
		return BatchResult{}, errors.New("light: CountBatch does not support TailCount (lane batches always run the leaf loop)")
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return BatchResult{}, errors.New("light: CountBatch does not support checkpointing")
	}
	// One member per query; identical patterns compile to identical
	// plans and group automatically by compatibility key.
	q := query{members: make([]member, len(queries)), batch: true}
	for i, bq := range queries {
		if bq.Pattern == nil {
			return BatchResult{}, fmt.Errorf("light: batch query %d has no pattern", i)
		}
		m := unlabeled(bq.Pattern)
		m.spec = lanes.Spec{MinDegree: bq.MinDegree, Filter: bq.Filter}
		if bq.Roots != nil {
			m.spec.Roots = append(make([]graph.VertexID, 0, len(bq.Roots)), bq.Roots...)
		}
		q.members[i] = m
	}
	return execute(ctx, g, opts, q)
}
