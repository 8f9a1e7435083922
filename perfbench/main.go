// Command perfbench is the repository benchmark: it runs one named
// workload against the light library and the lightd handler, checks
// every result against an independent oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) with
// their units, ending with one JSON line. See README.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"light"
)

// workloads maps each --workload name to its runner and its client
// goroutine count.
var workloads = map[string]struct {
	run     func(*env) error
	clients func(nproc int) int
}{
	"count-ba20k":  {runCountBA20k, func(int) int { return 1 }},
	"serve-small":  {runServeSmall, func(nproc int) int { return nproc }},
	"serve-mutate": {runServeMutate, func(int) int { return 2 }},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

// env is one run's configuration and report.
type env struct {
	name    string
	seed    int64
	window  time.Duration
	traced  bool
	nproc   int
	clients int
	rep     *report
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	nproc := runtime.NumCPU()
	e := &env{
		name: *name, seed: *seed, traced: *traceFlag == 1, nproc: nproc,
		window:  time.Duration(*seconds * float64(time.Second)),
		clients: w.clients(nproc),
		rep:     newReport(),
	}
	if e.clients > nproc {
		fmt.Fprintf(stderr, "perfbench: %s needs %d client goroutines but nproc is %d\n", e.name, e.clients, nproc)
		return 2
	}
	e.rep.notef("host nproc=%d gomaxprocs=%d go=%s cpu=%q", nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	e.rep.notef("run workload=%s seed=%d seconds=%g trace=%d clients=%d", e.name, e.seed, *seconds, *traceFlag, e.clients)
	if err := w.run(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.name, err)
		return 1
	}
	if err := e.rep.print(stdout, e.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// since returns the time elapsed from t in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// settle collects the garbage of the benchmark's own earlier phases
// (discarded set-up copies, oracle runs) before a timed phase, so that
// neither its timing nor the peak resident set depends on when the
// collector last ran.
func settle() { runtime.GC() }

// medianSetup runs setup setupReps times and returns the median wall
// time in seconds; setup must leave the run's state in place on its
// last repetition.
func medianSetup(setup func(last bool) error) (float64, error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		if err := setup(i == setupReps-1); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, since(t0))
	}
	return median(times), nil
}

// planMS times PlanKey for each pattern on g (median of 5 calls each)
// and returns the mean over patterns in ms.
func planMS(g *light.Graph, pats map[string]*light.Pattern, opts light.Options) (float64, error) {
	var per []float64
	for _, p := range pats {
		var ts []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := light.PlanKey(g, p, opts); err != nil {
				return 0, fmt.Errorf("PlanKey %s: %w", p.Name(), err)
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		per = append(per, median(ts))
	}
	return mean(per), nil
}

// finishTrace records the traced window's throughput loss against the
// untraced one and the per-layer self times, and writes the span file.
func (e *env) finishTrace(tr *tracer, untracedOps, tracedOps float64, ops int) error {
	e.rep.set("trace.overhead_frac", 1-ratio(tracedOps, untracedOps))
	e.rep.notef("tracing overhead: throughput %.3f ops/s untraced, %.3f ops/s traced", untracedOps, tracedOps)
	spans := tr.snapshot()
	setSelfTimes(e.rep, spans, ops)
	meta := map[string]any{
		"workload": e.name, "seed": e.seed, "nproc": e.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "clients": e.clients,
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", e.name, e.seed))
	if err := tr.write(path, meta); err != nil {
		return err
	}
	e.rep.notef("spans: %d written to %s", len(spans), path)
	return nil
}
