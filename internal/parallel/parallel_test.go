package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/graph"
	"light/internal/pattern"
	"light/internal/plan"
)

func compile(t *testing.T, p *pattern.Pattern, mode plan.Mode) *plan.Plan {
	t.Helper()
	po := pattern.SymmetryBreaking(p)
	pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], mode)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func sequentialCount(t *testing.T, g *graph.Graph, pl *plan.Plan) uint64 {
	t.Helper()
	res, err := engine.New(g, pl, engine.Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func TestParallelMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":   gen.BarabasiAlbert(400, 5, 1),
		"rmat": gen.RMAT(9, 6, 2),
		"star": gen.Star(300), // one hub: the worst case for RootChunk
	}
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.P2(), pattern.P4()}
	for gname, g := range graphs {
		for _, p := range pats {
			pl := compile(t, p, plan.ModeLIGHT)
			want := sequentialCount(t, g, pl)
			for _, sched := range []Scheduler{WorkStealing, RootChunk} {
				for _, workers := range []int{1, 2, 4, 8} {
					res, err := Run(g, pl, Options{Workers: workers, Scheduler: sched, ChunkSize: 16, MinSplit: 4}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Matches != want {
						t.Fatalf("%s/%s %v workers=%d: got %d, want %d",
							gname, p.Name(), sched, workers, res.Matches, want)
					}
				}
			}
		}
	}
}

func TestParallelAllModes(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 9)
	p := pattern.P5()
	for _, mode := range []plan.Mode{plan.ModeSE, plan.ModeLM, plan.ModeMSC, plan.ModeLIGHT} {
		pl := compile(t, p, mode)
		want := sequentialCount(t, g, pl)
		res, err := Run(g, pl, Options{Workers: 6, ChunkSize: 8, MinSplit: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Fatalf("mode %s: got %d, want %d", mode.Name(), res.Matches, want)
		}
	}
}

func TestWorkStealingActuallySteals(t *testing.T) {
	// A hub-dominated graph with tiny chunks: all the work hides under
	// few roots, so donation must kick in for other workers to help.
	g := gen.BarabasiAlbert(2000, 8, 4)
	pl := compile(t, pattern.P3(), plan.ModeLIGHT)
	res, err := Run(g, pl, Options{Workers: 8, ChunkSize: 1024, MinSplit: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialCount(t, g, pl)
	if res.Matches != want {
		t.Fatalf("got %d, want %d", res.Matches, want)
	}
	if res.Donations == 0 || res.Steals == 0 {
		t.Logf("warning: no stealing observed (donations=%d steals=%d); load may have been balanced", res.Donations, res.Steals)
	}
	if res.Steals > res.Donations {
		t.Fatalf("steals %d > donations %d", res.Steals, res.Donations)
	}
}

func TestParallelVisitor(t *testing.T) {
	g := gen.Complete(10)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	var mu sync.Mutex
	seen := map[[3]graph.VertexID]bool{}
	res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 2}, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		key := [3]graph.VertexID{m[0], m[1], m[2]}
		if seen[key] {
			t.Errorf("duplicate %v", key)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 120 || len(seen) != 120 {
		t.Fatalf("C(10,3) = 120, got matches=%d seen=%d", res.Matches, len(seen))
	}
}

func TestParallelEarlyStop(t *testing.T) {
	g := gen.Complete(40)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	var mu sync.Mutex
	calls := 0
	res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 1}, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("expected Stopped")
	}
	if res.Matches >= 9880 { // far fewer than the full C(40,3)
		t.Fatalf("early stop ineffective: %d matches", res.Matches)
	}
}

// TestVisitNotCalledAfterStop: once visit returns false it is never
// called again, even by workers already waiting to deliver a match. A
// slow visitor keeps the other workers queued on its mutex, so a stop
// that let them through would show as extra calls.
func TestVisitNotCalledAfterStop(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 8, 7)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	const stopAt = 100
	for trial := 0; trial < 5; trial++ {
		var calls atomic.Int64
		res, err := Run(g, pl, Options{Workers: 4, ChunkSize: 4, MinSplit: 2}, func(m []graph.VertexID) bool {
			time.Sleep(20 * time.Microsecond)
			return calls.Add(1) < stopAt
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatal("expected Stopped")
		}
		if n := calls.Load(); n != stopAt {
			t.Fatalf("trial %d: visit called %d times, want exactly %d", trial, n, stopAt)
		}
	}
}

func TestParallelTimeLimit(t *testing.T) {
	g := gen.Complete(150)
	pl := compile(t, pattern.Clique(5), plan.ModeLIGHT)
	start := time.Now()
	_, err := Run(g, pl, Options{Workers: 4, Engine: engine.Options{TimeLimit: 50 * time.Millisecond}}, nil)
	if err != engine.ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time limit not enforced promptly: %v", elapsed)
	}
}

func TestTimeLimitSpansChunks(t *testing.T) {
	// Regression: the limit must be absolute across the whole run, not
	// restarted per root chunk. With ChunkSize 1 there are many chunks,
	// each heavy; the old per-chunk clock never expired.
	g := gen.Complete(300)
	pl := compile(t, pattern.Clique(4), plan.ModeLIGHT)
	start := time.Now()
	_, err := Run(g, pl, Options{
		Workers:   2,
		ChunkSize: 1,
		Engine:    engine.Options{TimeLimit: 300 * time.Millisecond},
	}, nil)
	if err != engine.ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("limit not absolute: ran %v", elapsed)
	}
}

func TestCandidateMemoryScalesWithWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(500, 5, 6)
	pl := compile(t, pattern.P5(), plan.ModeLIGHT)
	res1, err := Run(g, pl, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Run(g, pl, Options{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res4.CandidateMemBytes != 4*res1.CandidateMemBytes {
		t.Fatalf("memory %d with 4 workers, %d with 1 (want 4×)", res4.CandidateMemBytes, res1.CandidateMemBytes)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers < 1 || o.ChunkSize < 1 || o.MinSplit < 1 {
		t.Fatalf("bad defaults: %+v", o)
	}
	if WorkStealing.String() != "WorkStealing" || RootChunk.String() != "RootChunk" {
		t.Fatal("scheduler names")
	}
}

func TestManyWorkersSmallGraph(t *testing.T) {
	// More workers than roots must still terminate and be correct.
	g := gen.Complete(6)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	res, err := Run(g, pl, Options{Workers: 32, ChunkSize: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 20 {
		t.Fatalf("got %d, want 20", res.Matches)
	}
}

func TestStaticPartitionCorrectAndImbalanced(t *testing.T) {
	// The paper's §VIII-A observation: naive static partitioning of
	// C(π[1]) is correct but badly load-imbalanced on skewed graphs,
	// because degree-ordered ids concentrate the heavy hubs in the last
	// worker's range.
	g := gen.BarabasiAlbert(2000, 8, 4)
	pl := compile(t, pattern.P3(), plan.ModeLIGHT)
	want := sequentialCount(t, g, pl)

	static, err := Run(g, pl, Options{Workers: 8, Scheduler: StaticPartition}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.Matches != want {
		t.Fatalf("static partition wrong count: %d, want %d", static.Matches, want)
	}
	if len(static.PerWorkerNodes) != 8 {
		t.Fatalf("per-worker accounting missing: %v", static.PerWorkerNodes)
	}
	// The intrinsic work distribution of the static ranges, measured
	// deterministically by running each range on one sequential engine
	// (per-goroutine node counts on a single-core box reflect the Go
	// scheduler, not the workload). The paper's point: equal-width root
	// ranges carry very unequal work on skewed graphs.
	workers := 8
	e := engine.New(g, pl, engine.Options{})
	n := g.NumVertices()
	roots := make([]graph.VertexID, n)
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	var max, sum uint64
	for w := 0; w < workers; w++ {
		res, err := e.RunRoots(roots[w*n/workers:(w+1)*n/workers], nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Nodes
		if res.Nodes > max {
			max = res.Nodes
		}
	}
	imbalance := float64(max) * float64(workers) / float64(sum)
	t.Logf("static range imbalance (max/mean nodes): %.2f", imbalance)
	if imbalance < 1.5 {
		t.Fatalf("static partitioning unexpectedly balanced (%.2f) — test graph not skewed enough", imbalance)
	}
}

func TestStaticPartitionEarlyStopAndLimit(t *testing.T) {
	g := gen.Complete(40)
	pl := compile(t, pattern.Triangle(), plan.ModeLIGHT)
	n := 0
	var mu sync.Mutex
	res, err := Run(g, pl, Options{Workers: 4, Scheduler: StaticPartition}, func(m []graph.VertexID) bool {
		mu.Lock()
		defer mu.Unlock()
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("expected Stopped")
	}
	_, err = Run(gen.Complete(150), compile(t, pattern.Clique(5), plan.ModeLIGHT),
		Options{Workers: 2, Scheduler: StaticPartition, Engine: engine.Options{TimeLimit: 50 * time.Millisecond}}, nil)
	if err != engine.ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}
