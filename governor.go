package light

import (
	"errors"
	"fmt"
	"time"

	"light/internal/admission"
)

// ErrOverloaded is returned when a run sharing a Governor cannot get
// its guaranteed worker slot before Options.AdmissionTimeout elapses —
// the governor's load-shedding signal. Callers should back off and
// retry, or surface the overload to their own clients.
var ErrOverloaded = errors.New("light: overloaded, admission deadline exceeded")

// ErrMemoryBudget is returned when a run exhausts its memory budget
// after every degradation rung (exact-size arena slabs, worker
// shedding). A checkpointing run still writes a valid final checkpoint
// first, so the work is resumable with a larger budget.
var ErrMemoryBudget = errors.New("light: memory budget exceeded")

// ErrStalled is returned when the stall watchdog cancelled the run
// (GovernorConfig.CancelOnStall) after a worker stopped making
// progress; the RunReport's StallDump carries the diagnostic.
var ErrStalled = errors.New("light: run cancelled by stall watchdog")

// GovernorConfig configures NewGovernor.
type GovernorConfig struct {
	// Slots is the worker-slot budget shared by every run admitted
	// through the governor; defaults to GOMAXPROCS. Each admitted run
	// is guaranteed one slot and acquires up to its Options.Workers
	// opportunistically, returning the surplus while other runs wait.
	Slots int
	// MemoryBudget caps the total candidate-arena bytes across all
	// admitted runs (0 = unlimited). Per-run Options.MemoryBudget
	// ceilings nest under it.
	MemoryBudget int64
	// StallInterval is the watchdog sampling period (default 1s).
	StallInterval time.Duration
	// StallPatience is how many consecutive intervals a busy worker may
	// go without progress before the watchdog records a diagnostic
	// (default 5).
	StallPatience int
	// CancelOnStall makes a fired watchdog cancel the stalled run with
	// ErrStalled instead of only recording the diagnostic.
	CancelOnStall bool
	// DisableWatchdog turns the stall watchdog off for admitted runs.
	DisableWatchdog bool
}

// Governor is a process-wide resource governor shared by concurrent
// runs: a FIFO-fair elastic worker-slot budget, an optional shared
// memory budget, and a stall watchdog. Create one Governor per process
// (or per tenant class) and point every run's Options.Governor at it;
// all methods are safe for concurrent use.
type Governor struct {
	g *admission.Governor
}

// NewGovernor returns a Governor with cfg, applying defaults.
func NewGovernor(cfg GovernorConfig) *Governor {
	return &Governor{g: admission.New(admission.Config{
		Slots:           cfg.Slots,
		MemoryBudget:    cfg.MemoryBudget,
		StallInterval:   cfg.StallInterval,
		StallPatience:   cfg.StallPatience,
		CancelOnStall:   cfg.CancelOnStall,
		DisableWatchdog: cfg.DisableWatchdog,
	})}
}

// Slots returns the governor's total worker-slot budget.
func (gv *Governor) Slots() int { return gv.g.Slots() }

// ActiveQueries returns the number of currently admitted runs.
func (gv *Governor) ActiveQueries() int { return gv.g.ActiveQueries() }

// MemoryInUse returns the bytes currently reserved against the
// governor's shared memory budget (0 when unbudgeted).
func (gv *Governor) MemoryInUse() int64 { return gv.g.MemoryInUse() }

// Timeouts returns how many admissions failed with ErrOverloaded.
func (gv *Governor) Timeouts() uint64 { return gv.g.Timeouts() }

// validate is the single pre-spawn choke point for Options: every
// invalid field is rejected with an error here, before any worker
// goroutine, arena, or checkpoint file is created. (Engine- and
// scheduler-level checks below this layer remain as defense in depth.)
func (o Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("light: Options.Workers is %d, must be non-negative (0 means one worker)", o.Workers)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("light: Options.TimeLimit is %v, must be non-negative", o.TimeLimit)
	}
	if o.CheckpointInterval < 0 {
		return fmt.Errorf("light: Options.CheckpointInterval is %v, must be non-negative", o.CheckpointInterval)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("light: Options.MemoryBudget is %d, must be non-negative (0 means unlimited)", o.MemoryBudget)
	}
	if o.AdmissionTimeout < 0 {
		return fmt.Errorf("light: Options.AdmissionTimeout is %v, must be non-negative (0 waits until the context is done)", o.AdmissionTimeout)
	}
	if o.Algorithm < LIGHT || o.Algorithm > MSC {
		return fmt.Errorf("light: Options.Algorithm is %d, must be LIGHT, SE, LM or MSC", o.Algorithm)
	}
	if o.Intersection < HybridBlock || o.Intersection > Hybrid {
		return fmt.Errorf("light: Options.Intersection is %d, must be HybridBlock, Merge, MergeBlock, Galloping or Hybrid", o.Intersection)
	}
	return nil
}
