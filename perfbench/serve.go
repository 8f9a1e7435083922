package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"light"
	"light/internal/pattern"
	"light/internal/server"
)

// graphName is the registry name every serve workload queries.
const graphName = "g"

// service is the lightd handler behind an httptest server on loopback.
type service struct {
	srv *server.Server
	hs  *httptest.Server
	c   *client
	g   *light.Graph
	cur atomic.Pointer[tracer] // read by the handler wrapper per request
}

// startService registers g with a fresh server.New(Config{Slots}) and
// serves its Handler on loopback. Only a traced run wraps the handler.
func startService(g *light.Graph, slots int, traced bool) (*service, error) {
	s := &service{srv: server.New(server.Config{Slots: slots}), g: g}
	if _, err := s.srv.Registry().Add(graphName, g); err != nil {
		return nil, err
	}
	h := s.srv.Handler()
	if traced {
		h = traceHandler(h, &s.cur)
	}
	s.hs = httptest.NewServer(h)
	s.c = &client{base: s.hs.URL, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}}
	return s, nil
}

func (s *service) close() {
	s.c.hc.CloseIdleConnections()
	s.hs.Close()
}

type queryBody struct {
	Graph   string              `json:"graph"`
	Pattern string              `json:"pattern"`
	Limit   int                 `json:"limit,omitempty"`
	Options server.QueryOptions `json:"options"`
}

type batchQuery struct {
	Pattern   string `json:"pattern"`
	MinDegree int    `json:"min_degree,omitempty"`
}

type batchBody struct {
	Graph   string              `json:"graph"`
	Queries []batchQuery        `json:"queries"`
	Options server.QueryOptions `json:"options"`
}

// batchPatterns are the catalog patterns of the /batch request, each
// narrowed by every rung of minDegreeLadder. As in count-ba20k, P4 and
// P5 are left out: P5 alone takes half a second on BA(2000, 4), which
// would make one batch most of the workload's time.
var (
	batchPatterns   = []string{"P1", "P2", "P3", "P6", "P7"}
	minDegreeLadder = []int{0, 1, 2, 3, 4}
)

// enumerateLimit caps the rows of an /enumerate op.
const enumerateLimit = 100

// serveStats is what one client measured in a window.
type serveStats struct {
	reads    []float64 // ms, every successful read op
	hits     []float64 // ms, cached /query
	overhead []float64 // ms, client latency minus RunReport.WallNS of uncached /query
	batches  []float64 // ms, /batch
	groups   float64   // lane groups summed over batches
	queries  float64   // batch queries summed over batches
	runs     runReports
	tally    tally
	failures []string
	ends     []time.Time // completion of each reads entry
	start    time.Time
	window   time.Duration
}

func (s *serveStats) merge(o *serveStats) {
	s.reads = append(s.reads, o.reads...)
	s.hits = append(s.hits, o.hits...)
	s.overhead = append(s.overhead, o.overhead...)
	s.batches = append(s.batches, o.batches...)
	s.groups += o.groups
	s.queries += o.queries
	s.runs = append(s.runs, o.runs...)
	s.tally.merge(o.tally)
	s.failures = append(s.failures, o.failures...)
	s.ends = append(s.ends, o.ends...)
}

func (s *serveStats) failf(o outcome, format string, args ...any) {
	s.tally.record(o)
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// report folds failures into the run report.
func (s *serveStats) report(r *report) {
	r.add(s.tally)
	for _, f := range s.failures {
		r.notef("FAIL: %s", f)
	}
}

// query runs one /query op, checks its count against *want (nil: the
// caller checks later) and records it. It returns the response and the
// client-side latency in ms.
func (s *service) query(st *serveStats, tr *tracer, name string, noCache bool, workers int, want *uint64) (server.QueryResponse, float64, bool) {
	op, root := tr.id(), tr.id()
	t0 := time.Now()
	ex := s.c.post(tr, op, root, "/query", queryBody{Graph: graphName, Pattern: name,
		Options: server.QueryOptions{Workers: workers, NoCache: noCache}})
	var qr server.QueryResponse
	if o := classify(ex.status, ex.err); o != okOp {
		st.failf(o, "/query %s: status %d err %v: %s", name, ex.status, ex.err, ex.body)
		return qr, 0, false
	}
	if err := json.Unmarshal(ex.body, &qr); err != nil {
		st.failf(badStatusOp, "/query %s: %v", name, err)
		return qr, 0, false
	}
	if want != nil && qr.Matches != *want {
		st.failf(wrongCountOp, "/query %s: %d matches, oracle %d", name, qr.Matches, *want)
		return qr, 0, false
	}
	st.tally.record(okOp)
	lat := ms(ex.end.Sub(t0))
	st.reads = append(st.reads, lat)
	if qr.Cached {
		st.hits = append(st.hits, lat)
	} else if qr.Report != nil {
		st.runs = append(st.runs, qr.Report)
		st.overhead = append(st.overhead, lat-ms(time.Duration(qr.Report.WallNS)))
		tr.runChildren(op, ex.handler, ex.end, "engine", time.Duration(qr.Report.WallNS),
			time.Duration(qr.Report.AdmissionWaitNS), runAttrs(qr.Report))
	}
	st.ends = append(st.ends, ex.end)
	if tr != nil {
		tr.record(span{ID: root, Op: op, Name: "op query " + name, Layer: "client",
			Start: tr.at(t0), End: tr.at(time.Now())})
	}
	return qr, lat, true
}

// serveSmall is the serve-small workload state.
type serveSmall struct {
	e        *env
	svc      *service
	streams  []*opStream
	refs     map[string]uint64
	batch    []batchQuery
	patEdges map[string][][2]int
}

// runServeSmall drives the lightd handler with nproc closed-loop
// clients over a seeded mix of cached and uncached /query, /batch and
// /enumerate on BA(2000, 4).
func runServeSmall(e *env) error {
	const n, k = 2000, 4
	ss := &serveSmall{e: e, patEdges: make(map[string][][2]int)}
	var builds []float64
	setup, err := medianSetup(func(last bool) error {
		edges := graphEdges(baStructure(n, k), e.seed)
		t0 := time.Now()
		g := light.NewGraph(n, edges)
		builds = append(builds, since(t0))
		svc, err := startService(g, e.nproc, e.traced)
		if err != nil {
			return err
		}
		st := &serveStats{}
		for _, name := range servePatterns {
			svc.query(st, nil, name, true, e.nproc, nil)
		}
		if st.tally.failed > 0 {
			svc.close()
			return fmt.Errorf("warm-up: %v", st.failures)
		}
		if !last {
			svc.close()
			return nil
		}
		ss.svc = svc
		return nil
	})
	if err != nil {
		return err
	}
	defer ss.svc.close()
	g := ss.svc.g
	e.rep.set("setup_s", setup)
	e.rep.set("graph.build_s", median(builds))
	e.rep.notef("graph BA(%d,%d): %d vertices, %d edges, max degree %d, fingerprint %016x",
		n, k, g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.Fingerprint())
	if err := ss.oracle(); err != nil {
		return err
	}
	for c := 0; c < e.clients; c++ {
		ss.streams = append(ss.streams, newOpStream(e.seed, c))
	}

	if !e.traced {
		st := ss.measure(e.window, nil)
		st.report(e.rep)
		if err := ss.setEndToEnd(st); err != nil {
			return err
		}
	} else {
		un := ss.measure(e.window/2, nil)
		un.report(e.rep)
		before, err := ss.svc.c.stats()
		if err != nil {
			return err
		}
		tr := newTracer()
		ss.svc.cur.Store(tr)
		st := ss.measure(e.window/2, tr)
		ss.svc.cur.Store(nil)
		st.report(e.rep)
		after, err := ss.svc.c.stats()
		if err != nil {
			return err
		}
		setServerLayers(e.rep, st, tr, before, after, 0)
		pats, err := patternSet(servePatterns)
		if err != nil {
			return err
		}
		pm, err := planMS(g, pats, light.Options{})
		if err != nil {
			return err
		}
		e.rep.set("plan.ms", pm)
		if err := e.finishTrace(tr, throughput(un), throughput(st), len(st.reads)); err != nil {
			return err
		}
	}
	return e.httpWriteProbe(ss.svc, batchSchedule{Size: 100, CompactEvery: compactEvery})
}

// oracle computes serial SE references for the query patterns and for
// every member of the batch, outside the timed window.
func (ss *serveSmall) oracle() error {
	t0 := time.Now()
	g := ss.svc.g
	var jobs []refJob
	for _, n := range servePatterns {
		p, err := light.PatternByName(n)
		if err != nil {
			return err
		}
		jobs = append(jobs, refJob{key: n, p: p})
		pp, err := pattern.ByName(n)
		if err != nil {
			return err
		}
		ss.patEdges[n] = pp.Edges()
	}
	for _, n := range batchPatterns {
		p, err := light.PatternByName(n)
		if err != nil {
			return err
		}
		for _, md := range minDegreeLadder {
			ss.batch = append(ss.batch, batchQuery{Pattern: n, MinDegree: md})
			job := refJob{key: batchKey(n, md), p: p}
			if md > 0 {
				job.opts.Filter = func(_ int, v light.VertexID) bool { return g.Degree(v) >= md }
			}
			jobs = append(jobs, job)
		}
	}
	refs, err := references(g, jobs, ss.e.nproc)
	if err != nil {
		return err
	}
	ss.refs = refs
	ss.e.rep.notef("oracle: %d serial SE references in %.2fs", len(refs), since(t0))
	return nil
}

func batchKey(name string, md int) string { return fmt.Sprintf("%s/mindeg%d", name, md) }

// measure runs every client's closed loop until d has passed.
func (ss *serveSmall) measure(d time.Duration, tr *tracer) *serveStats {
	settle()
	start := time.Now()
	end := start.Add(d)
	per := make([]serveStats, len(ss.streams))
	var wg sync.WaitGroup
	for c := range ss.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				ss.do(ss.streams[c].next(), &per[c], tr)
			}
		}(c)
	}
	wg.Wait()
	total := &serveStats{start: start, window: d}
	for c := range per {
		total.merge(&per[c])
	}
	return total
}

// throughput is the median over the window's slices of the completed
// ops per second.
func throughput(s *serveStats) float64 { return slicedRate(s.ends, s.start, s.window) }

func (ss *serveSmall) do(op serveOp, st *serveStats, tr *tracer) {
	workers := ss.e.nproc
	switch op.Kind {
	case "query":
		want := ss.refs[op.Pattern]
		ss.svc.query(st, tr, op.Pattern, op.NoCache, workers, &want)
	case "batch":
		ss.doBatch(st, tr, workers)
	case "enumerate":
		ss.doEnumerate(st, tr, op.Pattern)
	}
}

// doBatch runs the catalog x min-degree ladder through /batch without
// the cache, so every batch runs through the lane engine.
func (ss *serveSmall) doBatch(st *serveStats, tr *tracer, workers int) {
	op, root := tr.id(), tr.id()
	t0 := time.Now()
	ex := ss.svc.c.post(tr, op, root, "/batch", batchBody{Graph: graphName, Queries: ss.batch,
		Options: server.QueryOptions{Workers: workers, NoCache: true}})
	if o := classify(ex.status, ex.err); o != okOp {
		st.failf(o, "/batch: status %d err %v: %s", ex.status, ex.err, ex.body)
		return
	}
	var br server.BatchResponse
	if err := json.Unmarshal(ex.body, &br); err != nil || len(br.Queries) != len(ss.batch) {
		st.failf(badStatusOp, "/batch: %d results for %d queries (%v)", len(br.Queries), len(ss.batch), err)
		return
	}
	for i, q := range br.Queries {
		key := batchKey(ss.batch[i].Pattern, ss.batch[i].MinDegree)
		if q.Matches != ss.refs[key] {
			st.failf(wrongCountOp, "/batch %s: %d matches, oracle %d", key, q.Matches, ss.refs[key])
			return
		}
	}
	st.tally.record(okOp)
	lat := ms(ex.end.Sub(t0))
	st.reads = append(st.reads, lat)
	st.batches = append(st.batches, lat)
	st.groups += float64(br.Groups)
	st.queries += float64(len(br.Queries))
	st.ends = append(st.ends, ex.end)
	if tr != nil {
		var adm time.Duration
		if len(br.Queries) > 0 && br.Queries[0].Report != nil {
			adm = time.Duration(br.Queries[0].Report.AdmissionWaitNS)
		}
		tr.runChildren(op, ex.handler, ex.end, "lanes", time.Duration(br.DurationNS), adm,
			map[string]int64{"groups": int64(br.Groups), "workers": int64(br.Workers)})
		tr.record(span{ID: root, Op: op, Name: "op batch", Layer: "client", Start: tr.at(t0), End: tr.at(time.Now())})
	}
}

// doEnumerate streams up to enumerateLimit rows and checks the row
// count against the oracle and every row as an embedding of the
// pattern. It asks for one worker: with more, the /enumerate handler
// writes rows past the limit (101 of a limit of 100), because workers
// blocked on its row callback still emit after one has returned false.
// The oracle below catches that; the benchmark keeps to one worker
// until the handler is fixed.
func (ss *serveSmall) doEnumerate(st *serveStats, tr *tracer, name string) {
	op, root := tr.id(), tr.id()
	t0 := time.Now()
	ex := ss.svc.c.post(tr, op, root, "/enumerate", queryBody{Graph: graphName, Pattern: name, Limit: enumerateLimit,
		Options: server.QueryOptions{Workers: 1}})
	if o := classify(ex.status, ex.err); o != okOp {
		st.failf(o, "/enumerate %s: status %d err %v", name, ex.status, ex.err)
		return
	}
	rows, trailer, err := parseEnumerate(ex.body)
	want := min(uint64(enumerateLimit), ss.refs[name])
	if err != nil || trailer.Error != "" || uint64(len(rows)) != want || trailer.Rows != len(rows) {
		st.failf(wrongCountOp, "/enumerate %s: %d rows (trailer %+v, err %v), want %d", name, len(rows), trailer, err, want)
		return
	}
	for _, m := range rows {
		if !ss.isEmbedding(name, m) {
			st.failf(wrongCountOp, "/enumerate %s: row %v is not an embedding", name, m)
			return
		}
	}
	st.tally.record(okOp)
	st.reads = append(st.reads, ms(ex.end.Sub(t0)))
	st.ends = append(st.ends, ex.end)
	if tr != nil {
		tr.record(span{ID: root, Op: op, Name: "op enumerate " + name, Layer: "client", Start: tr.at(t0), End: tr.at(time.Now())})
	}
}

// isEmbedding reports whether m maps the pattern's vertices to
// distinct data vertices joined by every pattern edge.
func (ss *serveSmall) isEmbedding(name string, m []uint32) bool {
	seen := make(map[uint32]bool, len(m))
	for _, v := range m {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	for _, pe := range ss.patEdges[name] {
		if pe[0] >= len(m) || pe[1] >= len(m) || !ss.svc.g.HasEdge(m[pe[0]], m[pe[1]]) {
			return false
		}
	}
	return true
}

// setEndToEnd reports the read metrics of an untraced serve-small
// window: each a median over the window's slices, every slice holding
// well over a hundred reads.
func (ss *serveSmall) setEndToEnd(st *serveStats) error {
	e := ss.e
	e.rep.set("throughput_ops", throughput(st))
	for _, m := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		v, err := slicedQuantile(st.reads, st.ends, st.start, st.window, m.q)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		e.rep.set(m.name, v)
	}
	e.rep.notef("reads: %d ops (%d cache hits, %d batches) in %v; rates and percentiles are medians over %d slices",
		len(st.reads), len(st.hits), len(st.batches), st.window, slices)
	return nil
}

// setServerLayers writes the server, admission, lanes and run-report
// layer metrics of a traced serve window.
func setServerLayers(r *report, st *serveStats, tr *tracer, before, after server.StatsResponse, writes int) {
	st.runs.setLayers(r)
	r.set("server.overhead_ms", median(st.overhead))
	r.set("server.cache_hit_ms", median(st.hits))
	var handler []float64
	for _, s := range tr.snapshot() {
		if s.Layer == "server" {
			handler = append(handler, float64(s.End-s.Start)/1e6)
		}
	}
	r.set("server.handler_ms", median(handler))
	if before.Cache != nil && after.Cache != nil {
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		r.set("server.cache_hit_ratio", ratio(hits, hits+misses))
		r.set("server.invalidations", ratio(float64(after.Cache.Invalidations-before.Cache.Invalidations), float64(writes)))
	}
	r.set("admission.refused", float64(st.tally.refused)+float64(after.Governor.AdmissionTimeouts-before.Governor.AdmissionTimeouts))
	r.set("lanes.groups", ratio(st.groups, float64(len(st.batches))))
	r.set("lanes.queries_per_group", ratio(st.queries, st.groups))
	r.set("lanes.batch_ms", median(st.batches))
}

// httpWriteProbe posts edge batches to the idle service after the read
// window (write_p50_ms and write_p90_ms of a workload without a
// writer), then checks the served count against a rebuild.
func (e *env) httpWriteProbe(svc *service, sched batchSchedule) error {
	set := newEdgeSet(svc.g)
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamProbe)))
	var lat []float64
	var t tally
	for i := 0; i < probeBatches; i++ {
		b := set.next(rng, sched.Size, sched.Size)
		b.Compact = (i+1)%sched.CompactEvery == 0
		settle() // as in writeProbe
		ex := svc.c.post(nil, 0, 0, "/graphs/"+graphName+"/edges", b)
		o := classify(ex.status, ex.err)
		t.record(o)
		if o != okOp {
			e.rep.add(t)
			return fmt.Errorf("write probe batch %d: status %d err %v: %s", i, ex.status, ex.err, ex.body)
		}
		lat = append(lat, ms(ex.end.Sub(ex.start)))
	}
	e.rep.add(t)
	e.rep.set("peak_rss_mb", peakRSSMB())
	if err := e.setWriteLatency(lat); err != nil {
		return err
	}
	e.rep.notef("write probe: %d batches of %d+%d edges over HTTP, compaction every %d",
		probeBatches, sched.Size, sched.Size, sched.CompactEvery)
	return e.checkServedRebuilt(svc, set, "triangle")
}

// checkServedRebuilt compares an uncached served count with a serial
// SE count on a graph rebuilt from the edge model.
func (e *env) checkServedRebuilt(svc *service, set *edgeSet, name string) error {
	p, err := light.PatternByName(name)
	if err != nil {
		return err
	}
	want, err := light.Count(light.NewGraph(set.n, set.pairs()), p, light.Options{Algorithm: light.SE})
	if err != nil {
		return err
	}
	st := &serveStats{}
	svc.query(st, nil, name, true, e.nproc, &want.Matches)
	st.report(e.rep)
	if st.tally.failed == 0 {
		e.rep.notef("final graph: served %s count %d equals the rebuilt graph's", name, want.Matches)
	}
	return nil
}
