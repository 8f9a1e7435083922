package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"light"
)

// metricDef names one reported metric and its unit; the lists below
// are the ones BENCHMARK.json declares (main_test checks they agree).
type metricDef struct{ Name, Unit string }

// endToEnd is printed by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is printed by a traced run. A metric a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"plan.ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ms", "ms"},
	{"server.invalidations", "1/write"},
	{"admission.wait_ms", "ms"},
	{"admission.slots_granted_mean", "count"},
	{"admission.refused", "count"},
	{"parallel.busy_frac", "ratio"},
	{"parallel.queue_wait_ms", "ms"},
	{"parallel.steals", "count"},
	{"parallel.donations", "count"},
	{"parallel.worker_skew", "ratio"},
	{"parallel.speedup", "x"},
	{"engine.nodes", "count"},
	{"engine.comps", "count"},
	{"engine.matches", "count"},
	{"engine.nodes_per_busy_s", "1/s"},
	{"intersect.intersections", "count"},
	{"intersect.elements", "count"},
	{"intersect.galloping_frac", "ratio"},
	{"intersect.elements_per_busy_s", "1/s"},
	{"intersect.bitmap_probes", "count"},
	{"lanes.groups", "count"},
	{"lanes.queries_per_group", "count"},
	{"lanes.batch_ms", "ms"},
	{"arena.candidate_bytes", "bytes"},
	{"delta.apply_ms", "ms"},
	{"delta.compact_ms", "ms"},
	{"delta.overlay_edges", "count"},
	{"delta.overlay_read_ratio", "ratio"},
	{"self.client_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.light_ms", "ms"},
	{"self.admission_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.lanes_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"counters.changed", "count"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
	lines             []string // human-readable notes, printed before the JSON line
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records a failed check that is not an op (an oracle mismatch).
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// add folds an op tally into the report.
func (r *report) add(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the notes, one line per metric, and the JSON result as
// the last line. It errors when an end-to-end metric is missing: each
// must be measured, never defaulted.
func (r *report) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "failed_frac = %.6f (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// runReports collects the RunReports of uncached runs for the
// per-layer metrics.
type runReports []*light.RunReport

// setLayers writes the run-report metrics: per-run means, and rates
// over the summed busy time.
func (rs runReports) setLayers(r *report) {
	sum := func(f func(*light.RunReport) float64) float64 {
		t := 0.0
		for _, x := range rs {
			t += f(x)
		}
		return t
	}
	perRun := func(f func(*light.RunReport) float64) float64 { return ratio(sum(f), float64(len(rs))) }
	busyS := sum(func(x *light.RunReport) float64 {
		if x.BusyNS == 0 {
			return float64(x.WallNS) // sequential runs report no busy time
		}
		return float64(x.BusyNS)
	}) / 1e9
	nodes := sum(func(x *light.RunReport) float64 { return float64(x.Nodes) })
	elements := sum(func(x *light.RunReport) float64 { return float64(x.Elements) })
	inters := sum(func(x *light.RunReport) float64 { return float64(x.Intersections) })
	var skews []float64
	for _, x := range rs {
		var total, top float64
		for _, b := range x.PerWorkerBusyNS {
			total += float64(b)
			top = max(top, float64(b))
		}
		if total > 0 {
			skews = append(skews, top/(total/float64(len(x.PerWorkerBusyNS))))
		}
	}
	r.set("admission.wait_ms", perRun(func(x *light.RunReport) float64 { return float64(x.AdmissionWaitNS) })/1e6)
	r.set("admission.slots_granted_mean", perRun(func(x *light.RunReport) float64 { return float64(x.SlotsGranted) }))
	r.set("parallel.busy_frac", ratio(busyS*1e9, sum(func(x *light.RunReport) float64 {
		return float64(max(x.Workers, 1)) * float64(x.WallNS)
	})))
	r.set("parallel.queue_wait_ms", perRun(func(x *light.RunReport) float64 { return float64(x.QueueWaitNS) })/1e6)
	r.set("parallel.steals", perRun(func(x *light.RunReport) float64 { return float64(x.Steals) }))
	r.set("parallel.donations", perRun(func(x *light.RunReport) float64 { return float64(x.Donations) }))
	r.set("parallel.worker_skew", mean(skews))
	r.set("engine.nodes", ratio(nodes, float64(len(rs))))
	r.set("engine.comps", perRun(func(x *light.RunReport) float64 { return float64(x.Comps) }))
	r.set("engine.matches", perRun(func(x *light.RunReport) float64 { return float64(x.Matches) }))
	r.set("engine.nodes_per_busy_s", ratio(nodes, busyS))
	r.set("intersect.intersections", ratio(inters, float64(len(rs))))
	r.set("intersect.elements", ratio(elements, float64(len(rs))))
	r.set("intersect.galloping_frac", ratio(sum(func(x *light.RunReport) float64 { return float64(x.Galloping) }), inters))
	r.set("intersect.elements_per_busy_s", ratio(elements, busyS))
	r.set("intersect.bitmap_probes", perRun(func(x *light.RunReport) float64 { return float64(x.BitmapProbes) }))
	r.set("arena.candidate_bytes", perRun(func(x *light.RunReport) float64 { return float64(x.CandidateMemoryBytes) }))
	r.set("delta.overlay_edges", perRun(func(x *light.RunReport) float64 { return float64(x.DeltaEdges) }))
}

// setSelfTimes writes each layer's self time per op from the spans.
func setSelfTimes(r *report, spans []span, ops int) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var parts []string
	for _, l := range layers {
		ms := ratio(float64(self[l]), float64(ops)) / 1e6
		r.set("self."+l+"_ms", ms)
		parts = append(parts, fmt.Sprintf("%s=%.3fms", l, ms))
	}
	r.notef("self time per op over %d ops: %s", ops, strings.Join(parts, " "))
	r.set("trace.spans", float64(len(spans)))
}
