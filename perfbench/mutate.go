package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"light"
)

// Writer schedule of serve-mutate: one batch of mutateSched.Size adds
// plus as many removes every writePeriod, open loop. Both are
// assumptions, not a measured workload: 200 edges is the batch size
// whose ApplyEdges cost was probed (about 4 ms), and 16 batches a
// second keeps the writer to about a fifth of one core while a 20 s
// window holds 320 batches. A batch waits for a processor the reader's
// workers hold, so single write latencies spread widely: with 160
// batches, write_p50_ms over five seeds had an interquartile range of
// 27% of its median.
const writePeriod = 62500 * time.Microsecond

var mutateSched = batchSchedule{Size: 200, CompactEvery: compactEvery}

// readRec is one served read, kept for the post-window oracle.
type readRec struct {
	gen     uint64
	pattern string
	matches uint64
}

// serveMutate is the serve-mutate workload state. Its reader and
// writer rotate and count across windows, so a traced run's second
// window continues the first's sequences.
type serveMutate struct {
	e      *env
	svc    *service
	pats   map[string]*light.Pattern
	edges0 [][2]light.VertexID // the served graph's generated edges
	model  *edgeSet
	rng    *rand.Rand

	reads   []readRec
	batches []edgeBatch // every batch posted, in order
	readIdx int
}

// mutateStats is what one serve-mutate window measured.
type mutateStats struct {
	read        serveStats
	byPattern   map[string][]float64
	writes      []float64 // ms from due time to response
	lateness    []float64 // ms from due time to send
	invalidated int
	writeEnds   []time.Time
	tally       tally // writer ops
	failures    []string
}

// runServeMutate drives the lightd handler on BA(20000, 8) with one
// closed-loop reader and one open-loop writer of edge batches.
func runServeMutate(e *env) error {
	pats, err := patternSet(servePatterns)
	if err != nil {
		return err
	}
	sm := &serveMutate{e: e, pats: pats, rng: rand.New(rand.NewSource(subSeed(e.seed, streamWriter)))}
	var builds []float64
	setup, err := medianSetup(func(last bool) error {
		edges := graphEdges(baStructure(ba20kN, ba20kK), e.seed)
		t0 := time.Now()
		g := light.NewGraph(ba20kN, edges)
		builds = append(builds, since(t0))
		svc, err := startService(g, e.nproc, e.traced)
		if err != nil {
			return err
		}
		st := &serveStats{}
		svc.query(st, nil, "triangle", true, e.nproc, nil)
		if st.tally.failed > 0 {
			svc.close()
			return fmt.Errorf("warm-up: %v", st.failures)
		}
		if !last {
			svc.close()
			return nil
		}
		sm.svc, sm.edges0 = svc, edges
		return nil
	})
	if err != nil {
		return err
	}
	defer sm.svc.close()
	g := sm.svc.g
	e.rep.set("setup_s", setup)
	e.rep.set("graph.build_s", median(builds))
	e.rep.notef("graph BA(%d,%d): %d vertices, %d edges, max degree %d, fingerprint %016x",
		ba20kN, ba20kK, g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.Fingerprint())
	sm.model = newEdgeSet(g)

	if !e.traced {
		st := sm.measure(e.window, nil)
		st.report(e.rep)
		if err := sm.setEndToEnd(st); err != nil {
			return err
		}
	} else {
		un := sm.measure(e.window/2, nil)
		un.report(e.rep)
		before, err := sm.svc.c.stats()
		if err != nil {
			return err
		}
		tr := newTracer()
		sm.svc.cur.Store(tr)
		st := sm.measure(e.window/2, tr)
		sm.svc.cur.Store(nil)
		st.report(e.rep)
		after, err := sm.svc.c.stats()
		if err != nil {
			return err
		}
		setServerLayers(e.rep, &st.read, tr, before, after, len(st.writes))
		pm, err := planMS(g, pats, light.Options{})
		if err != nil {
			return err
		}
		e.rep.set("plan.ms", pm)
		if err := e.finishTrace(tr, un.throughput(), st.throughput(), len(st.read.reads)+len(st.writes)); err != nil {
			return err
		}
	}
	e.rep.set("peak_rss_mb", peakRSSMB())
	if err := sm.checkFinal(); err != nil {
		return err
	}
	return sm.replay()
}

// draw draws the writer's next batch from the model.
func (sm *serveMutate) draw() edgeBatch {
	b := sm.model.next(sm.rng, mutateSched.Size, mutateSched.Size)
	b.Compact = (len(sm.batches)+1)%mutateSched.CompactEvery == 0
	return b
}

// measure runs the reader and the writer until d has passed.
func (sm *serveMutate) measure(d time.Duration, tr *tracer) *mutateStats {
	settle()
	start := time.Now()
	end := start.Add(d)
	st := &mutateStats{byPattern: make(map[string][]float64)}
	st.read.start, st.read.window = start, d
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(end) {
			name := servePatterns[sm.readIdx%len(servePatterns)]
			sm.readIdx++
			qr, lat, ok := sm.svc.query(&st.read, tr, name, false, sm.e.nproc, nil)
			if !ok {
				continue
			}
			if qr.Report == nil {
				st.read.failf(badStatusOp, "/query %s: response without report", name)
				continue
			}
			st.byPattern[name] = append(st.byPattern[name], lat)
			sm.reads = append(sm.reads, readRec{gen: qr.Report.SnapshotGen, pattern: name, matches: qr.Matches})
		}
	}()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writePeriod)
		if !due.Before(end) {
			break
		}
		b := sm.draw()
		time.Sleep(time.Until(due))
		sm.write(st, tr, due, b)
	}
	wg.Wait()
	return st
}

// write posts batch b and times it from its due time.
func (sm *serveMutate) write(st *mutateStats, tr *tracer, due time.Time, b edgeBatch) {
	op, root := tr.id(), tr.id()
	sent := time.Now()
	ex := sm.svc.c.post(tr, op, root, "/graphs/"+graphName+"/edges", b)
	sm.batches = append(sm.batches, b)
	st.lateness = append(st.lateness, ms(sent.Sub(due)))
	o := classify(ex.status, ex.err)
	var resp struct {
		Invalidated int `json:"invalidated"`
	}
	if o == okOp && json.Unmarshal(ex.body, &resp) != nil {
		o = badStatusOp
	}
	st.tally.record(o)
	if o != okOp {
		st.failures = append(st.failures, fmt.Sprintf("edges batch %d: status %d err %v: %s",
			len(sm.batches), ex.status, ex.err, ex.body))
		return
	}
	st.writes = append(st.writes, ms(ex.end.Sub(due)))
	st.invalidated += resp.Invalidated
	st.writeEnds = append(st.writeEnds, ex.end)
	if tr != nil {
		tr.record(span{ID: root, Op: op, Name: "op edges", Layer: "client", Start: tr.at(due), End: tr.at(time.Now()),
			Attrs: map[string]int64{"lateness_ns": sent.Sub(due).Nanoseconds()}})
	}
}

func (st *mutateStats) throughput() float64 {
	ends := append(append([]time.Time(nil), st.read.ends...), st.writeEnds...)
	return slicedRate(ends, st.read.start, st.read.window)
}

func (st *mutateStats) report(r *report) {
	st.read.report(r)
	r.add(st.tally)
	for _, f := range st.failures {
		r.notef("FAIL: %s", f)
	}
	late := median(st.lateness)
	top := 0.0
	for _, l := range st.lateness {
		top = max(top, l)
	}
	r.notef("writer: %d batches, lateness median %.3fms max %.3fms, %d cache entries invalidated",
		len(st.lateness), late, top, st.invalidated)
}

// setEndToEnd reports an untraced serve-mutate window.
func (sm *serveMutate) setEndToEnd(st *mutateStats) error {
	e := sm.e
	e.rep.set("throughput_ops", st.throughput())
	e.rep.set("latency_p50_ms", classMedianGeomean(st.byPattern))
	p90, err := percentile(st.read.reads, 0.9)
	if err != nil {
		return fmt.Errorf("latency_p90_ms: %w", err)
	}
	e.rep.set("latency_p90_ms", p90)
	e.rep.notef("reads: %d /query ops (%d cache hits) in %v (latency_p50_ms is the geometric mean of per-pattern medians)",
		len(st.read.reads), len(st.read.hits), st.read.window)
	return e.setWriteLatency(st.writes)
}

// checkFinal requires the served counts after the window to equal a
// fresh count on a graph rebuilt from the benchmark's own edge set.
func (sm *serveMutate) checkFinal() error {
	rebuilt := light.NewGraph(sm.model.n, sm.model.pairs())
	st := &serveStats{}
	for _, name := range servePatterns {
		want, err := light.Count(rebuilt, sm.pats[name], light.Options{Workers: sm.e.nproc})
		if err != nil {
			return err
		}
		sm.svc.query(st, nil, name, true, sm.e.nproc, &want.Matches)
	}
	st.report(sm.e.rep)
	if st.tally.failed == 0 {
		sm.e.rep.notef("final graph: served counts of %v equal the rebuilt graph's", servePatterns)
	}
	return nil
}

// replay re-applies the posted batches in-process to a fresh copy of
// the initial graph. Generation numbers advance exactly as on the
// server, so every read is checked against a serial SE count of the
// snapshot it was served from. Each compaction cycle also checks
// CountDelta's identity count(to) == count(from) + Net, and the
// ApplyEdges and Compact calls are timed (delta.apply_ms,
// delta.compact_ms).
func (sm *serveMutate) replay() error {
	e := sm.e
	t0 := time.Now()
	need := make(map[uint64]map[string]bool)
	for _, r := range sm.reads {
		if need[r.gen] == nil {
			need[r.gen] = make(map[string]bool)
		}
		need[r.gen][r.pattern] = true
	}
	type refKey struct {
		gen     uint64
		pattern string
	}
	type job struct {
		key  refKey
		snap *light.Snapshot
	}
	rg := light.NewGraph(ba20kN, sm.edges0)
	refs := make(map[refKey]uint64)
	var mu sync.Mutex
	var jobErr error
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < e.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := light.Count(rg, sm.pats[j.key.pattern], light.Options{Algorithm: light.SE, Snapshot: j.snap})
				mu.Lock()
				refs[j.key] = res.Matches
				if err != nil && jobErr == nil {
					jobErr = err
				}
				mu.Unlock()
			}
		}()
	}
	submit := func(s *light.Snapshot) {
		for name := range need[s.Generation()] {
			jobs <- job{refKey{s.Generation(), name}, s}
		}
		delete(need, s.Generation())
	}
	err := sm.replayBatches(rg, submit)
	close(jobs)
	wg.Wait()
	if err != nil {
		return err
	}
	if jobErr != nil {
		return fmt.Errorf("replay reference: %w", jobErr)
	}
	wrong := 0
	for _, r := range sm.reads {
		want, ok := refs[refKey{r.gen, r.pattern}]
		if !ok || want != r.matches {
			wrong++
			if wrong <= 10 {
				e.rep.notef("FAIL: read %s at generation %d: %d matches, oracle %d (known %t)", r.pattern, r.gen, r.matches, want, ok)
			}
		}
	}
	e.rep.attempted++ // the reads were counted as ops; the oracle pass is one check
	if wrong > 0 {
		e.rep.failed++
		e.rep.notef("FAIL: %d of %d reads disagree with the replay oracle", wrong, len(sm.reads))
	}
	if rg.Fingerprint() != sm.svc.g.Fingerprint() {
		e.rep.fail("replayed fingerprint %016x, served %016x", rg.Fingerprint(), sm.svc.g.Fingerprint())
	}
	e.rep.notef("oracle: %d reads checked against serial SE counts of their snapshots, %d batches replayed in %.2fs",
		len(sm.reads), len(sm.batches), since(t0))
	return nil
}

// replayBatches applies sm.batches to rg, handing every snapshot to
// submit, and checks CountDelta's identity on each compaction cycle.
func (sm *serveMutate) replayBatches(rg *light.Graph, submit func(*light.Snapshot)) error {
	e := sm.e
	tri := sm.pats["triangle"]
	par := light.Options{Workers: e.nproc}
	countAt := func(s *light.Snapshot) (uint64, error) {
		o := par
		o.Snapshot = s
		res, err := light.Count(rg, tri, o)
		return res.Matches, err
	}
	cycleStart := rg.Snapshot()
	submit(cycleStart)
	fromCount, err := countAt(cycleStart)
	if err != nil {
		return err
	}
	var apply, compact []float64
	var lastDirty, lastClean *light.Snapshot
	cycles := 0
	for i, b := range sm.batches {
		t0 := time.Now()
		s, err := rg.ApplyEdges(b.Add, b.Remove)
		apply = append(apply, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("replay batch %d: %w", i, err)
		}
		submit(s)
		if !b.Compact {
			continue
		}
		tc := time.Now()
		cs, err := rg.Compact()
		compact = append(compact, ms(time.Since(tc)))
		if err != nil {
			return fmt.Errorf("replay compaction %d: %w", i, err)
		}
		submit(cs)
		toCount, err := countAt(s)
		if err != nil {
			return err
		}
		dr, err := light.CountDelta(rg, tri, cycleStart, s, par)
		if err != nil {
			return fmt.Errorf("CountDelta: %w", err)
		}
		cycles++
		if int64(toCount) != int64(fromCount)+dr.Net {
			e.rep.fail("CountDelta cycle %d: count(to) %d != count(from) %d + net %d", cycles, toCount, fromCount, dr.Net)
		} else {
			e.rep.attempted++
		}
		cycleStart, fromCount = cs, toCount
		lastDirty, lastClean = s, cs
	}
	e.rep.notef("CountDelta identity checked on %d compaction cycles", cycles)
	e.rep.set("delta.apply_ms", median(apply))
	e.rep.set("delta.compact_ms", median(compact))
	if e.traced && lastDirty != nil {
		// Read wall time on a snapshot carrying a full cycle of edge
		// deltas over that on its compacted successor: same edges, same
		// counts.
		ratio, err := wallRatio(rg, ordered(sm.pats, servePatterns),
			light.Options{Workers: e.nproc, Snapshot: lastDirty}, light.Options{Workers: e.nproc, Snapshot: lastClean})
		if err != nil {
			return err
		}
		e.rep.set("delta.overlay_read_ratio", ratio)
		e.rep.notef("overlay reads: %d delta edges vs compacted", lastDirty.DeltaEdges())
	}
	return nil
}
