package light

import (
	"context"
	"errors"

	"light/internal/labeled"
)

// Label is a vertex label for labeled subgraph matching.
type Label = uint16

// LabeledGraph is a data graph whose vertices carry labels, with the
// candidate-filtering index (neighborhood label frequencies) built at
// construction.
type LabeledGraph struct {
	st *snapshotState
	lg *labeled.Graph
}

// WithLabels attaches labels to a graph: labels[v] is the label of
// vertex v in g's (degree-ordered) numbering. The labeled view binds to
// the graph's current CSR, so pending edge deltas must be compacted
// first (later ApplyEdges calls on g do not change the labeled view).
func WithLabels(g *Graph, labels []Label) (*LabeledGraph, error) {
	st := g.snap()
	if st.ov != nil {
		return nil, errors.New("light: WithLabels with pending edge deltas; call Compact first")
	}
	lg, err := labeled.NewGraph(st.base, labels)
	if err != nil {
		return nil, err
	}
	return &LabeledGraph{st: st, lg: lg}, nil
}

// Label returns the label of data vertex v.
func (g *LabeledGraph) Label(v VertexID) Label { return g.lg.Labels[v] }

// LabeledPattern is a pattern whose vertices carry labels.
type LabeledPattern struct {
	lp *labeled.Pattern
}

// WithPatternLabels attaches labels to a pattern's vertices.
func WithPatternLabels(p *Pattern, labels []Label) (*LabeledPattern, error) {
	lp, err := labeled.NewPattern(p.p, labels)
	if err != nil {
		return nil, err
	}
	return &LabeledPattern{lp: lp}, nil
}

// CountLabeled returns the number of label-preserving matches: subgraphs
// of g isomorphic to p where every matched vertex carries the pattern
// vertex's label. Deduplication uses the label-preserving automorphisms
// only, so differently-labeled placements of a symmetric pattern are
// counted separately, as they should be.
//
// A labeled query runs through the same pipeline as Count, so it honours
// Algorithm, Intersection, Workers, TimeLimit, Order, Governor,
// MemoryBudget and AdmissionTimeout, and
// Filter narrows the label checks further. TailCount has no effect (the
// label checks run on every leaf). The run always enumerates the
// snapshot WithLabels bound, and checkpoints cannot record the labels,
// so Snapshot, CheckpointPath and ResumeFrom are rejected.
func CountLabeled(g *LabeledGraph, p *LabeledPattern, opts Options) (Result, error) {
	q, err := g.query(p, opts)
	if err != nil {
		return Result{}, err
	}
	return run(context.Background(), nil, opts, q)
}

// EnumerateLabeled streams every label-preserving match to visit (same
// contract as Enumerate, same Options as CountLabeled).
func EnumerateLabeled(g *LabeledGraph, p *LabeledPattern, opts Options, visit func(mapping []VertexID) bool) (Result, error) {
	if visit == nil {
		return Result{}, errors.New("light: EnumerateLabeled requires a visitor; use CountLabeled")
	}
	q, err := g.query(p, opts)
	if err != nil {
		return Result{}, err
	}
	q.visit = visit
	return run(context.Background(), nil, opts, q)
}

// query is the executor query of a labeled run: an ordinary plan from
// the label-preserving partial order, with the label filter in front of
// Options.Filter.
func (g *LabeledGraph) query(p *LabeledPattern, opts Options) (query, error) {
	switch {
	case opts.Snapshot != nil:
		return query{}, errors.New("light: CountLabeled does not take Options.Snapshot (it runs on the snapshot WithLabels bound)")
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return query{}, errors.New("light: CountLabeled does not support checkpointing")
	}
	return query{
		st:      g.st,
		members: []member{{p: p.lp.P, po: p.lp.SymmetryBreaking()}},
		filter:  labeled.Filter(g.lg, p.lp),
	}, nil
}

// ApproxCount estimates the match count from random path-sampling
// probes instead of exhaustive enumeration — useful when the exact
// count is astronomically large and a ±few-percent answer suffices.
// The estimate is unbiased; variance shrinks with the number of
// samples. Hits reports how many probes completed (very small values
// mean the estimate is unreliable). Deterministic for a given seed.
func ApproxCount(g *Graph, p *Pattern, samples int, seed int64) (estimateValue float64, hits int, err error) {
	res, err := approxCount(g, p, samples, seed)
	if err != nil {
		return 0, 0, err
	}
	return res.Estimate, res.Hits, nil
}
