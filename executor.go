package light

import (
	"context"
	"errors"
	"fmt"
	"time"

	"light/internal/arena"
	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/lanes"
	"light/internal/metrics"
	"light/internal/parallel"
	"light/internal/pattern"
	"light/internal/plan"
	"light/internal/supervise"
)

// query is what an entry point hands the executor: the plans to run and
// what the entry point adds on top of Options.
type query struct {
	// st pins the snapshot; nil resolves Options.Snapshot against the
	// Graph (the latest published view when that is nil too).
	st *snapshotState
	// members compile to one plan each: exactly one for a single run,
	// any number for a lane batch.
	members []member
	batch   bool
	// filter is composed with Options.Filter (labeled matching's label
	// checks); nil leaves Options.Filter alone.
	filter func(u int, v VertexID) bool
	// visit receives every match of a single run; nil counts.
	visit engine.VisitFunc
}

// member is one pattern of a query with the partial order that breaks
// its symmetry, plus its lane spec when it runs in a batch.
type member struct {
	p    *pattern.Pattern
	po   *pattern.PartialOrder
	spec lanes.Spec
}

// unlabeled is the member of an unlabeled pattern: symmetry broken over
// its full automorphism group.
func unlabeled(p *Pattern) member {
	return member{p: p.p, po: pattern.SymmetryBreaking(p.p)}
}

// plan compiles the member under the options, planning from the
// snapshot's base-CSR statistics (pending deltas shift costs, never the
// match set, so base statistics keep the plan sound).
func (m member) plan(st *snapshotState, opts Options) (*plan.Plan, error) {
	if opts.Order != nil {
		pi := make([]pattern.Vertex, len(opts.Order))
		for i, u := range opts.Order {
			pi[i] = u
		}
		return plan.Compile(m.p, m.po, pi, opts.Algorithm.mode())
	}
	return plan.Choose(m.p, m.po, st.planStats(), opts.Algorithm.mode())
}

// run executes a single-plan query and returns its one Result.
func run(ctx context.Context, g *Graph, opts Options, q query) (Result, error) {
	bres, err := execute(ctx, g, opts, q)
	if len(bres.Queries) == 0 {
		return Result{}, err
	}
	return bres.Queries[0], err
}

// execute is the one query pipeline behind every public entry point:
// validate → resolve snapshot → plan → govern → run → report. The run
// stage is its only branch: a single plan runs on the work-stealing
// scheduler (one worker is a one-worker pool), a batch on lanes.Run.
func execute(ctx context.Context, g *Graph, opts Options, q query) (BatchResult, error) {
	var bres BatchResult
	if err := opts.validate(); err != nil {
		return bres, err
	}
	if len(q.members) == 0 {
		return bres, nil
	}

	st := q.st
	if st == nil {
		var err error
		if st, err = g.resolveState(opts.Snapshot); err != nil {
			return bres, err
		}
	}
	if st.ov != nil && (opts.CheckpointPath != "" || opts.ResumeFrom != "") {
		return bres, errors.New(
			"light: checkpoint/resume require a compacted snapshot; call Compact before checkpointing")
	}

	lq := make([]lanes.Query, len(q.members))
	maxVerts := 0
	for i, m := range q.members {
		pl, err := m.plan(st, opts)
		if err != nil {
			if q.batch {
				err = fmt.Errorf("light: batch query %d (%s): %w", i, m.p.Name(), err)
			}
			return bres, err
		}
		lq[i] = lanes.Query{Plan: pl, Spec: m.spec}
		maxVerts = max(maxVerts, m.p.NumVertices())
	}
	rec := metrics.NewRecorder()
	filter := opts.Filter
	if q.filter != nil {
		filter = q.filter
		if user := opts.Filter; user != nil {
			filter = func(u int, v VertexID) bool { return q.filter(u, v) && user(u, v) }
		}
	}
	popts := parallel.Options{
		Engine: engine.Options{
			Kernel:    opts.Intersection.kind(),
			TimeLimit: opts.TimeLimit,
			TailCount: opts.TailCount,
			Filter:    filter,
			Metrics:   rec,
			Overlay:   st.ov,
		},
		Workers: max(opts.Workers, 1),
		Metrics: rec,
	}
	if opts.CheckpointPath != "" {
		popts.Checkpoint = &parallel.CheckpointOptions{Path: opts.CheckpointPath, Interval: opts.CheckpointInterval}
	}
	if opts.ResumeFrom != "" {
		ck, err := supervise.LoadCheckpoint(opts.ResumeFrom)
		if err != nil {
			return bres, fmt.Errorf("light: loading checkpoint: %w", err)
		}
		popts.Resume = ck
	}

	start := time.Now()
	degradations, release, err := govern(ctx, opts, &popts, st.maxDegree(), maxVerts)
	if err != nil {
		return bres, err
	}
	defer release()

	// Run: the single branch point.
	var out outcome
	if q.batch {
		out, err = runBatch(ctx, st, lq, popts)
	} else {
		out, err = runPlan(ctx, st, lq[0].Plan, popts, q.visit)
	}
	bres.Duration = time.Since(start)

	// Report.
	if n := popts.MemLimiter.TightGrows(); n > 0 {
		degradations = append(degradations, fmt.Sprintf(
			"memory: %d exact-size arena slab grows under budget pressure", n))
	}
	if out.shed > 0 {
		degradations = append(degradations, fmt.Sprintf(
			"admission: shed %d worker slot(s) to waiting queries", out.shed))
	}
	if out.stalls > 0 {
		degradations = append(degradations, fmt.Sprintf(
			"watchdog: %d stall(s) detected", out.stalls))
	}
	rec.Add(metrics.GovernorDegradations, uint64(len(degradations)))
	bres.Groups, bres.Workers, bres.Degradations = out.groups, out.workers, degradations
	bres.Queries = make([]Result, len(lq))
	for i, lc := range out.counts {
		r := Result{
			Matches:              lc.Matches,
			Intersections:        lc.Stats.Intersections,
			GallopingPercent:     lc.Stats.GallopingPercent(),
			Nodes:                lc.Nodes,
			Duration:             bres.Duration,
			Order:                append([]int(nil), lq[i].Plan.Pi...),
			CandidateMemoryBytes: out.memBytes,
			Stopped:              out.stopped,
		}
		r.Report = newRunReport(out.recs[i], opts, out.workers, bres.Duration, out.memBytes, out.pres, degradations)
		r.Report.DeltaEdges = st.deltaEdges()
		r.Report.SnapshotGen = st.gen
		bres.Queries[i] = r
	}
	return bres, mapErr(err)
}

// outcome is what the run stage hands the report stage: per-plan
// counters and recorders, plus the run-wide scheduler facts.
type outcome struct {
	counts []engine.LaneCounts
	recs   []*metrics.Recorder
	// pres carries the per-worker extras of a single-plan run; nil for
	// a batch.
	pres            *parallel.Result
	groups, workers int
	memBytes        int64
	stopped         bool
	shed, stalls    uint64
}

// runPlan runs one plan on the governed work-stealing pool.
func runPlan(ctx context.Context, st *snapshotState, pl *plan.Plan, popts parallel.Options, visit engine.VisitFunc) (outcome, error) {
	pres, err := parallel.RunContext(ctx, st.base, pl, popts, visit)
	return outcome{
		counts:   []engine.LaneCounts{{Matches: pres.Matches, Nodes: pres.Nodes, Comps: pres.Comps, Stats: pres.Stats}},
		recs:     []*metrics.Recorder{popts.Metrics},
		pres:     &pres,
		groups:   1,
		workers:  pres.Workers,
		memBytes: pres.CandidateMemBytes,
		stopped:  pres.Stopped,
		shed:     pres.SlotsShed,
		stalls:   pres.Stalls,
	}, err
}

// runBatch runs the lane batch with the governed pool; every query gets
// its own recorder for its exactly-attributed counters.
func runBatch(ctx context.Context, st *snapshotState, lq []lanes.Query, popts parallel.Options) (outcome, error) {
	recs := make([]*metrics.Recorder, len(lq))
	for i := range recs {
		recs[i] = metrics.NewRecorder()
	}
	lres, err := lanes.Run(ctx, st.base, lq, lanes.Options{
		Engine:     popts.Engine,
		Workers:    popts.Workers,
		Gate:       popts.Gate,
		MemLimiter: popts.MemLimiter,
		Watchdog:   popts.Watchdog,
		Recorders:  recs,
	})
	return outcome{
		counts:   lres.PerQuery,
		recs:     recs,
		groups:   lres.Groups,
		workers:  lres.Workers,
		memBytes: lres.CandidateMemBytes,
		stopped:  lres.Stopped,
		shed:     lres.SlotsShed,
		stalls:   lres.Stalls,
	}, err
}

// govern is the executor's only governance code. It admits the run
// through the Governor (waiting for the guaranteed slot, taking what was
// granted), chains the run's memory budget under the governor's, sizes
// the pool against the budget and returns surplus slots — all before any
// worker spawns. It fills popts' Workers, Gate, Watchdog and MemLimiter;
// release must run when the run ends.
func govern(ctx context.Context, opts Options, popts *parallel.Options, maxDegree, patternVerts int) (degradations []string, release func(), err error) {
	rec := popts.Metrics
	var govLim *arena.Limiter
	if opts.Governor != nil {
		gov := opts.Governor.g
		a, aerr := gov.Admit(ctx, popts.Workers, opts.AdmissionTimeout)
		if aerr != nil {
			return nil, nil, mapErr(aerr)
		}
		popts.Gate = a
		popts.Watchdog = gov.Watchdog()
		govLim = gov.MemLimiter()
		rec.AddDuration(metrics.AdmissionWaitNanos, a.Wait())
		rec.Add(metrics.AdmissionSlotsGranted, uint64(a.Granted()))
		if a.Granted() < popts.Workers {
			degradations = append(degradations, fmt.Sprintf(
				"admission: granted %d of %d requested workers", a.Granted(), popts.Workers))
		}
		popts.Workers = a.Granted()
	}
	runLim := arena.NewLimiter(opts.MemoryBudget, govLim)
	popts.MemLimiter = runLim
	release = func() {
		runLim.ReleaseAll()
		popts.Gate.Close()
	}
	popts.Workers, degradations, err = sizeWorkers(popts.Workers, maxDegree, patternVerts, runLim, degradations)
	if err != nil {
		release()
		return nil, nil, err
	}
	// If the degradation ladder shrank the pool below the admission
	// grant, return the surplus slots before any worker spawns: the
	// governor's shed protocol assumes held slots == live workers, and
	// holding more would let every worker — including the last — retire
	// to a waiting query with root chunks still unclaimed.
	popts.Gate.ReleaseTo(popts.Workers)
	return degradations, release, nil
}

// sizeWorkers walks the memory-degradation ladder before any worker
// spawns: if the requested pool's predicted arena footprint exceeds the
// budget headroom even with exact-size (tight) slabs, workers are shed
// — down to serial — so the run fits; the engine's hard
// ErrMemoryBudget stop remains as the last resort for predictions the
// estimate cannot see (the prediction covers per-worker candidate
// buffers, the dominant term).
func sizeWorkers(workers, maxDegree, patternVerts int, lim *arena.Limiter, degradations []string) (int, []string, error) {
	head := lim.Headroom()
	if head < 0 {
		return workers, degradations, nil
	}
	if err := faultpoint.Hit(faultpoint.PointBudgetCheck); err != nil {
		return 0, nil, fmt.Errorf("light: budget check: %w", err)
	}
	// Per-worker worst case: one cap-d_max buffer per pattern vertex
	// plus one scratch buffer.
	allocs := patternVerts + 1
	tightEst := arena.EstimateBytes(allocs, maxDegree, true)
	if tightEst <= 0 || int64(workers)*tightEst <= head {
		return workers, degradations, nil
	}
	fit := int(head / tightEst)
	if fit < 1 {
		fit = 1
	}
	if fit < workers {
		degradations = append(degradations, fmt.Sprintf(
			"memory: shed workers %d -> %d (predicted %d B/worker, headroom %d B)",
			workers, fit, tightEst, head))
		workers = fit
	}
	return workers, degradations, nil
}
