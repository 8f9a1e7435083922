package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"light"
)

// countPatterns is the count-ba20k rotation. P4 (seconds) and P5
// (minutes) are too long to repeat inside a window.
var countPatterns = []string{"triangle", "P1", "P2", "P3", "P6", "P7"}

// ba20k is the graph size of count-ba20k and serve-mutate.
const ba20kN, ba20kK = 20000, 8

// countersJSON is the committed work-counter fingerprint: per pattern,
// nodes, comps, intersections and elements of one count on the
// unrelabeled BA(20000, 8) structure (see baStructure), so the
// fingerprint repeats across runs whatever --seed is.
//
//go:embed counters.json
var countersJSON []byte

// counterNames label the fingerprint columns.
var counterNames = [4]string{"engine.nodes", "engine.comps", "intersect.intersections", "intersect.elements"}

func workCounters(r *light.RunReport) [4]uint64 {
	return [4]uint64{r.Nodes, r.Comps, r.Intersections, r.Elements}
}

// runCountBA20k is the in-process workload: one caller runs light.Count
// in a closed loop over countPatterns with Workers = nproc.
func runCountBA20k(e *env) error {
	pats, err := patternSet(countPatterns)
	if err != nil {
		return err
	}
	opts := light.Options{Workers: e.nproc}
	var base, g *light.Graph
	var builds []float64
	setup, err := medianSetup(func(bool) error {
		base = baStructure(ba20kN, ba20kK)
		edges := graphEdges(base, e.seed)
		t0 := time.Now()
		g = light.NewGraph(ba20kN, edges)
		builds = append(builds, since(t0))
		_, err := light.Count(g, pats["triangle"], opts)
		return err
	})
	if err != nil {
		return err
	}
	e.rep.set("setup_s", setup)
	e.rep.set("graph.build_s", median(builds))
	e.rep.notef("graph BA(%d,%d): %d vertices, %d edges, max degree %d, fingerprint %016x",
		ba20kN, ba20kK, g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.Fingerprint())

	t0 := time.Now()
	jobs := make([]refJob, 0, len(countPatterns))
	for _, n := range countPatterns {
		jobs = append(jobs, refJob{key: n, p: pats[n]})
	}
	refs, err := references(g, jobs, e.nproc)
	if err != nil {
		return err
	}
	e.rep.notef("oracle: serial SE counts %v in %.2fs", refs, since(t0))
	if err := e.checkCounterFingerprint(base, pats, opts); err != nil {
		return err
	}

	cw := &countWindow{g: g, pats: pats, opts: opts, refs: refs, seen: make(map[string][4]uint64)}
	if !e.traced {
		cw.measure(e.window, nil)
		cw.report(e.rep)
		e.rep.set("throughput_ops", cw.throughput())
		e.rep.set("latency_p50_ms", classMedianGeomean(cw.byPattern))
		p90, err := percentile(cw.all, 0.9)
		if err != nil {
			return fmt.Errorf("latency_p90_ms: %w", err)
		}
		e.rep.set("latency_p90_ms", p90)
		e.rep.notef("reads: %d Count calls, %d rotations (latency_p50_ms is the geometric mean of per-pattern medians)",
			len(cw.all), len(cw.cycles))
	} else {
		cw.measure(e.window/2, nil)
		untraced := cw.throughput()
		cw.report(e.rep)
		tr := newTracer()
		cw.measure(e.window/2, tr)
		cw.report(e.rep)
		cw.runs.setLayers(e.rep)
		if err := e.finishTrace(tr, untraced, cw.throughput(), len(cw.all)); err != nil {
			return err
		}
		pm, err := planMS(g, pats, opts)
		if err != nil {
			return err
		}
		e.rep.set("plan.ms", pm)
		sp, err := wallRatio(g, ordered(pats, countPatterns), light.Options{Workers: 1}, opts)
		if err != nil {
			return err
		}
		e.rep.set("parallel.speedup", sp)
	}
	return e.writeProbe(g, batchSchedule{Size: 200, CompactEvery: compactEvery})
}

// countWindow is the count-ba20k closed loop and what it measured.
type countWindow struct {
	g    *light.Graph
	pats map[string]*light.Pattern
	opts light.Options
	refs map[string]uint64
	seen map[string][4]uint64 // first work counters per pattern

	cycles    []float64 // seconds per complete rotation
	all       []float64
	byPattern map[string][]float64
	runs      runReports
	tally     tally
	failures  []string
}

// report folds the window's ops and failures into r.
func (cw *countWindow) report(r *report) {
	r.add(cw.tally)
	for _, f := range cw.failures {
		r.notef("FAIL: %s", f)
	}
}

// throughput is ops per second over the median complete rotation:
// every rotation does the same work, so the median discards the
// rotations a neighbour's burst of load slowed.
func (cw *countWindow) throughput() float64 {
	return ratio(float64(len(countPatterns)), median(cw.cycles))
}

// measure runs the rotation until d has passed, replacing what an
// earlier window measured. Each op is checked against the oracle and
// its work counters against the pattern's first run in this process:
// the counters are deterministic, so any difference is a defect.
func (cw *countWindow) measure(d time.Duration, tr *tracer) {
	cw.cycles, cw.all, cw.runs, cw.tally, cw.failures = nil, nil, nil, tally{}, nil
	cw.byPattern = make(map[string][]float64)
	settle()
	start := time.Now()
	cycle := start
	for i := 0; time.Since(start) < d; i++ {
		name := countPatterns[i%len(countPatterns)]
		if i%len(countPatterns) == 0 {
			cycle = time.Now()
		}
		op, root := tr.id(), tr.id()
		t0 := time.Now()
		res, err := light.Count(cw.g, cw.pats[name], cw.opts)
		t1 := time.Now()
		o := okOp
		switch {
		case err != nil:
			o = transportOp
		case res.Matches != cw.refs[name]:
			o = wrongCountOp
		default:
			wc := workCounters(res.Report)
			if first, ok := cw.seen[name]; !ok {
				cw.seen[name] = wc
			} else if first != wc {
				o = wrongCountOp
			}
		}
		cw.tally.record(o)
		if o != okOp {
			cw.failures = append(cw.failures, fmt.Sprintf("count %s: outcome %d (matches %d, want %d, err %v)",
				name, o, res.Matches, cw.refs[name], err))
			continue
		}
		lat := ms(t1.Sub(t0))
		cw.all = append(cw.all, lat)
		cw.byPattern[name] = append(cw.byPattern[name], lat)
		cw.runs = append(cw.runs, res.Report)
		if tr != nil {
			call := tr.interval(op, root, "light.Count", "light", t0, t1, nil)
			tr.runChildren(op, call, t1, "engine", time.Duration(res.Report.WallNS),
				time.Duration(res.Report.AdmissionWaitNS), runAttrs(res.Report))
			tr.record(span{ID: root, Op: op, Name: "op count " + name, Layer: "client",
				Start: tr.at(t0), End: tr.at(time.Now())})
		}
		if i%len(countPatterns) == len(countPatterns)-1 {
			cw.cycles = append(cw.cycles, t1.Sub(cycle).Seconds())
		}
	}
}

// runAttrs are the RunReport durations attached to an engine span.
func runAttrs(r *light.RunReport) map[string]int64 {
	return map[string]int64{
		"workers": int64(r.Workers), "busy_ns": int64(r.BusyNS),
		"queue_wait_ns": int64(r.QueueWaitNS), "admission_wait_ns": int64(r.AdmissionWaitNS),
	}
}

// checkCounterFingerprint counts each pattern once on the unrelabeled
// structure base and compares the work counters with counters.json.
// Each pattern whose counters differ is a failed check: a change that
// alters the work done says so by updating the file with the printed
// values.
func (e *env) checkCounterFingerprint(base *light.Graph, pats map[string]*light.Pattern, opts light.Options) error {
	var want map[string][4]uint64
	if err := json.Unmarshal(countersJSON, &want); err != nil {
		return fmt.Errorf("counters.json: %w", err)
	}
	got := make(map[string][4]uint64, len(countPatterns))
	changed := 0
	for _, n := range countPatterns {
		res, err := light.Count(base, pats[n], opts)
		if err != nil {
			return fmt.Errorf("counter fingerprint %s: %w", n, err)
		}
		got[n] = workCounters(res.Report)
		for i := range got[n] {
			if got[n][i] != want[n][i] {
				changed++
				e.rep.notef("counter fingerprint: %s %s = %d, counters.json has %d", n, counterNames[i], got[n][i], want[n][i])
			}
		}
		if got[n] == want[n] {
			e.rep.attempted++
		} else {
			e.rep.fail("counter fingerprint of %s differs from counters.json", n)
		}
	}
	e.rep.set("counters.changed", float64(changed))
	if changed == 0 {
		e.rep.notef("counter fingerprint: %d patterns x %v match counters.json", len(got), counterNames)
		return nil
	}
	data, err := json.Marshal(got)
	if err != nil {
		return err
	}
	e.rep.notef("counter fingerprint observed: %s", data)
	return nil
}

// wallRatio is the geometric mean over patterns of p's run wall time
// under optsA over its wall time under optsB, each the best of two runs.
func wallRatio(g *light.Graph, pats []*light.Pattern, optsA, optsB light.Options) (float64, error) {
	best := func(p *light.Pattern, opts light.Options) (float64, error) {
		b := 0.0
		for i := 0; i < 2; i++ {
			res, err := light.Count(g, p, opts)
			if err != nil {
				return 0, err
			}
			if w := float64(res.Report.WallNS); i == 0 || w < b {
				b = w
			}
		}
		return b, nil
	}
	var ratios []float64
	for _, p := range pats {
		a, err := best(p, optsA)
		if err != nil {
			return 0, err
		}
		b, err := best(p, optsB)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, a/b)
	}
	return geomean(ratios), nil
}

// writeProbe times in-process edge batches on g after the read window
// (write_p50_ms and write_p90_ms of a workload without a writer), then
// checks the mutated graph against a rebuild from the benchmark's own
// edge set. Each batch starts from a collected heap: the probe's own
// garbage would otherwise start collector cycles at points that differ
// run to run, and move the median by ±15% between processes.
func (e *env) writeProbe(g *light.Graph, sched batchSchedule) error {
	set := newEdgeSet(g)
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamProbe)))
	var lat, apply, compact []float64
	for i := 0; i < probeBatches; i++ {
		b := set.next(rng, sched.Size, sched.Size)
		settle()
		t0 := time.Now()
		_, err := g.ApplyEdges(b.Add, b.Remove)
		apply = append(apply, ms(time.Since(t0)))
		if err == nil && (i+1)%sched.CompactEvery == 0 {
			tc := time.Now()
			_, err = g.Compact()
			compact = append(compact, ms(time.Since(tc)))
		}
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("write probe batch %d: %w", i, err)
		}
	}
	e.rep.attempted += probeBatches
	e.rep.set("peak_rss_mb", peakRSSMB())
	if err := e.setWriteLatency(lat); err != nil {
		return err
	}
	e.rep.set("delta.apply_ms", median(apply))
	e.rep.set("delta.compact_ms", median(compact))
	e.rep.notef("write probe: %d in-process batches of %d+%d edges, compaction every %d",
		probeBatches, sched.Size, sched.Size, sched.CompactEvery)
	return e.checkRebuilt(g, set, "triangle")
}

// setWriteLatency reports write_p50_ms and write_p90_ms.
func (e *env) setWriteLatency(lat []float64) error {
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return fmt.Errorf("write_p90_ms: %w", err)
	}
	e.rep.set("write_p50_ms", median(lat))
	e.rep.set("write_p90_ms", p90)
	return nil
}

// checkRebuilt compares g's count of pattern with a serial SE count on
// a graph rebuilt from the edge model.
func (e *env) checkRebuilt(g *light.Graph, set *edgeSet, pattern string) error {
	p, err := light.PatternByName(pattern)
	if err != nil {
		return err
	}
	got, err := light.Count(g, p, light.Options{Workers: e.nproc})
	if err != nil {
		return err
	}
	rebuilt := light.NewGraph(set.n, set.pairs())
	want, err := light.Count(rebuilt, p, light.Options{Algorithm: light.SE})
	if err != nil {
		return err
	}
	if got.Matches != want.Matches {
		e.rep.fail("mutated graph: %s count %d, rebuilt graph %d", pattern, got.Matches, want.Matches)
		return nil
	}
	e.rep.attempted++
	e.rep.notef("mutated graph: %s count %d equals the rebuilt graph's", pattern, got.Matches)
	return nil
}
