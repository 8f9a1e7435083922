package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"light"
	"light/internal/server"
)

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := percentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples above", got, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 above it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 above it and must be refused")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10 with 10 samples above", got, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// op [0,100): one child [10,60) that itself has two children
		// overlapping each other, [20,40) and [30,50).
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "http", Start: 10, End: 60},
		{ID: 3, Parent: 2, Layer: "server", Start: 20, End: 40},
		{ID: 4, Parent: 2, Layer: "server", Start: 30, End: 50},
		// A second child of the op overlapping the first, [50,70), and a
		// child sticking out of its parent, [90,120) (counts 90..100).
		{ID: 5, Parent: 1, Layer: "engine", Start: 50, End: 70},
		{ID: 6, Parent: 1, Layer: "engine", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"client": 100 - (70 - 10) - (100 - 90), // children cover [10,70) and [90,100)
		"http":   50 - (50 - 20),               // children cover [20,50)
		"server": 20 + 20,
		"engine": 20 + 30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	ops := func(seed int64, client int) []serveOp {
		s := newOpStream(seed, client)
		out := make([]serveOp, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(ops(7, 0), ops(7, 0)) {
		t.Fatal("same seed gave different op sequences")
	}
	if reflect.DeepEqual(ops(7, 0), ops(8, 0)) || reflect.DeepEqual(ops(7, 0), ops(7, 1)) {
		t.Fatal("another seed or client gave the same op sequence")
	}
	counts := map[string]int{}
	for _, op := range ops(7, 0) {
		counts[op.Kind+fmt.Sprint(op.NoCache)]++
	}
	if counts["batchfalse"] != 500/mixBlock*mixBatch || counts["querytrue"] != 500/mixBlock*mixMiss {
		t.Fatalf("op mix %v does not hold the fixed block shares", counts)
	}

	fp := func(seed int64) uint64 {
		return light.NewGraph(2000, graphEdges(baStructure(2000, 4), seed)).Fingerprint()
	}
	if fp(7) != fp(7) {
		t.Fatal("same seed gave different graph fingerprints")
	}
	if fp(7) == fp(8) {
		t.Fatal("another seed gave the same graph fingerprint")
	}

	batches := func(seed int64) []edgeBatch {
		set := newEdgeSet(light.NewGraph(2000, graphEdges(baStructure(2000, 4), seed)))
		rng := rand.New(rand.NewSource(subSeed(seed, streamWriter)))
		return []edgeBatch{set.next(rng, 20, 20), set.next(rng, 20, 20)}
	}
	if !reflect.DeepEqual(batches(7), batches(7)) {
		t.Fatal("same seed gave different edge batches")
	}
}

// TestFailedOpsAreCounted serves a 429, a 500, a wrong count and a
// right count, and requires all four ops attempted and three failed.
func TestFailedOpsAreCounted(t *testing.T) {
	statuses := []int{http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusOK, http.StatusOK}
	matches := []uint64{0, 0, 41, 42}
	call := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := call
		call++
		w.WriteHeader(statuses[i])
		if statuses[i] == http.StatusOK {
			json.NewEncoder(w).Encode(server.QueryResponse{Matches: matches[i]})
		}
	}))
	defer ts.Close()
	svc := &service{c: &client{base: ts.URL, hc: ts.Client()}}
	st := &serveStats{}
	want := uint64(42)
	for range statuses {
		svc.query(st, nil, "triangle", true, 1, &want)
	}
	got := st.tally
	if got != (tally{attempted: 4, failed: 3, refused: 1}) {
		t.Fatalf("tally %+v", got)
	}
	if len(st.reads) != 1 {
		t.Fatalf("%d latency samples, want only the successful op's", len(st.reads))
	}
	r := newReport()
	st.report(r)
	if r.attempted != 4 || r.failed != 3 {
		t.Fatalf("report counts %d attempted, %d failed", r.attempted, r.failed)
	}
	for _, c := range []struct {
		status int
		err    error
		want   outcome
	}{
		{200, nil, okOp}, {429, nil, refusedOp}, {503, nil, serverErrOp}, {404, nil, badStatusOp},
		{0, fmt.Errorf("reset"), transportOp},
	} {
		if got := classify(c.status, c.err); got != c.want {
			t.Errorf("classify(%d, %v) = %d, want %d", c.status, c.err, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and the
// declared ones in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, printed %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %v, printed %v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, runnable %v", names, workloadNames())
	}
}
