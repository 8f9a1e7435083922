package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// BenchSchema is the version tag every BENCH_*.json file carries. Bump
// it when the file layout changes incompatibly; the gate refuses to
// compare files with mismatched schemas.
const BenchSchema = "light-bench/3"

// BenchHost describes the machine a benchmark report was produced on —
// context for interpreting wall-clock numbers across runs.
type BenchHost struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`
}

// BenchRow is one measured configuration: a (dataset, pattern, system)
// cell with its wall-clock time and deterministic work counters. The
// counters (matches, nodes, comps, intersections, galloping, elements)
// depend only on graph, plan, and kernel — not on worker count or
// scheduling — so the regression gate holds them to exact equality.
type BenchRow struct {
	Dataset       string `json:"dataset"`
	Pattern       string `json:"pattern"`
	System        string `json:"system"`
	Mark          string `json:"mark,omitempty"` // "INF"/"OOS" failure marks
	WallNS        int64  `json:"wall_ns"`
	Matches       uint64 `json:"matches"`
	Nodes         uint64 `json:"nodes,omitempty"`
	Comps         uint64 `json:"comps,omitempty"`
	Intersections uint64 `json:"intersections,omitempty"`
	Galloping     uint64 `json:"galloping,omitempty"`
	Elements      uint64 `json:"elements,omitempty"`
	// Slots is the worker-slot count the run held at admission —
	// nonzero only for governed rows, where it is deterministic (an
	// uncontended governor always grants the full request) and
	// therefore part of the fingerprint.
	Slots       uint64 `json:"slots,omitempty"`
	MemoryBytes int64  `json:"memory_bytes,omitempty"`
}

// key identifies the row for baseline matching.
func (r BenchRow) key() string {
	return r.Dataset + "|" + r.Pattern + "|" + r.System
}

// BenchReport is the versioned on-disk format of a benchmark run
// (BENCH_<experiment>.json): host and configuration context, a
// fingerprint over the deterministic row fields, and the rows.
type BenchReport struct {
	Schema      string            `json:"schema"`
	Experiment  string            `json:"experiment"`
	GeneratedAt string            `json:"generated_at"`
	Host        BenchHost         `json:"host"`
	Config      map[string]string `json:"config,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Rows        []BenchRow        `json:"rows"`
}

// NewBenchReport assembles a schema-stamped report for one experiment:
// host info and the deterministic fingerprint are filled in, the rows
// are taken as measured.
func NewBenchReport(experiment string, config map[string]string, rows []BenchRow) *BenchReport {
	hostname, _ := os.Hostname() // optional context; empty on error is fine
	r := &BenchReport{
		Schema:      BenchSchema,
		Experiment:  experiment,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: BenchHost{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			Hostname:  hostname,
		},
		Config: config,
		Rows:   rows,
	}
	r.Fingerprint = r.computeFingerprint()
	return r
}

// computeFingerprint hashes the deterministic identity of the run — row
// keys, failure marks, and work counters, in row order — so two reports
// with equal fingerprints are counter-identical. Wall-clock times and
// host info are deliberately excluded.
func (r *BenchReport) computeFingerprint() string {
	h := fnv.New64a()
	w := func(s string) {
		h.Write([]byte(s)) //lightvet:ignore hygiene -- fnv.Write cannot fail
	}
	for _, row := range r.Rows {
		w(fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%d|%d\n",
			row.key(), row.Mark, row.Matches, row.Nodes, row.Comps,
			row.Intersections, row.Galloping, row.Elements, row.Slots))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteBenchFile writes the report as indented JSON, creating the
// destination directory if needed.
func WriteBenchFile(path string, r *BenchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding bench report: %w", err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("metrics: creating bench report dir: %w", err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("metrics: writing bench report: %w", err)
	}
	return nil
}

// LoadBenchFile reads a report and validates its schema tag and
// fingerprint, so a hand-edited or truncated baseline fails loudly
// rather than gating against garbage.
func LoadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("metrics: %s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("metrics: %s: schema %q, this build expects %q", path, r.Schema, BenchSchema)
	}
	if got := r.computeFingerprint(); got != r.Fingerprint {
		return nil, fmt.Errorf("metrics: %s: fingerprint %s does not match rows (%s): file edited or corrupt", path, r.Fingerprint, got)
	}
	return &r, nil
}

// BenchComparison is the outcome of gating a fresh report against a
// baseline. Counter regressions are hard failures (the counters are
// deterministic, so any drift is a behaviour change); wall regressions
// may be treated as advisory on noisy shared runners.
type BenchComparison struct {
	CounterRegressions []string
	WallRegressions    []string
}

// OK reports whether the comparison found nothing at all.
func (c *BenchComparison) OK() bool {
	return len(c.CounterRegressions) == 0 && len(c.WallRegressions) == 0
}

// CompareBench gates fresh against baseline. Rows are matched by
// (dataset, pattern, system); a row missing from either side, a changed
// failure mark, or any deterministic-counter difference is a counter
// regression. A row whose wall-clock time exceeds
// baseline·(1+wallTolerance)+wallSlack is a wall regression; the
// additive slack keeps sub-millisecond rows from tripping the
// percentage gate on timer noise.
func CompareBench(baseline, fresh *BenchReport, wallTolerance float64, wallSlack time.Duration) *BenchComparison {
	c := &BenchComparison{}
	base := make(map[string]BenchRow, len(baseline.Rows))
	for _, row := range baseline.Rows {
		base[row.key()] = row
	}
	seen := make(map[string]bool, len(fresh.Rows))
	for _, row := range fresh.Rows {
		seen[row.key()] = true
		b, ok := base[row.key()]
		if !ok {
			c.CounterRegressions = append(c.CounterRegressions,
				fmt.Sprintf("%s: not in baseline (suite changed — refresh the baseline)", row.key()))
			continue
		}
		if b.Mark != row.Mark {
			c.CounterRegressions = append(c.CounterRegressions,
				fmt.Sprintf("%s: failure mark %q, baseline %q", row.key(), row.Mark, b.Mark))
			continue
		}
		counters := []struct {
			name     string
			old, new uint64
		}{
			{"matches", b.Matches, row.Matches},
			{"nodes", b.Nodes, row.Nodes},
			{"comps", b.Comps, row.Comps},
			{"intersections", b.Intersections, row.Intersections},
			{"galloping", b.Galloping, row.Galloping},
			{"elements", b.Elements, row.Elements},
			{"slots", b.Slots, row.Slots},
		}
		for _, cc := range counters {
			if cc.old != cc.new {
				c.CounterRegressions = append(c.CounterRegressions,
					fmt.Sprintf("%s: %s %d, baseline %d (deterministic counter drifted)", row.key(), cc.name, cc.new, cc.old))
			}
		}
		if b.WallNS > 0 && row.WallNS > 0 {
			limit := int64(float64(b.WallNS)*(1+wallTolerance)) + int64(wallSlack)
			if row.WallNS > limit {
				c.WallRegressions = append(c.WallRegressions,
					fmt.Sprintf("%s: wall %v, baseline %v (limit %v = +%.0f%% + %v slack)",
						row.key(), time.Duration(row.WallNS), time.Duration(b.WallNS),
						time.Duration(limit), wallTolerance*100, wallSlack))
			}
		}
	}
	missing := make([]string, 0)
	for key := range base {
		if !seen[key] {
			missing = append(missing, fmt.Sprintf("%s: in baseline but not in fresh run", key))
		}
	}
	sort.Strings(missing)
	c.CounterRegressions = append(c.CounterRegressions, missing...)
	return c
}
