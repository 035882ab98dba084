package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"
)

// JournalName is the journal's filename inside a cache directory.
const JournalName = "journal.jsonl"

// ErrFailureBudget is wrapped into the error that aborts a sweep once
// more cells have persistently failed than MaxCellFailures allows.
var ErrFailureBudget = errors.New("sweep: cell failure budget exhausted")

// EngineConfig configures a sweep engine.
type EngineConfig struct {
	// Dir is the cache directory (objects/ store + journal). Empty runs
	// every cell with no cache and no journal: nothing is fingerprinted
	// and no object is read or written.
	Dir string
	// CellTimeout bounds one cell's simulation; 0 disables the bound. A
	// timed-out cell counts against the failure budget and is rendered
	// degraded, not fatal.
	CellTimeout time.Duration
	// MaxCellFailures is how many persistently failing cells a sweep
	// tolerates (journaled as failed, rendered as degraded entries)
	// before aborting; negative means unlimited, 0 aborts on the first.
	MaxCellFailures int
	// Ctx, when non-nil, interrupts the sweep: in-flight cells observe
	// the cancellation (the simulator polls it), are drained without
	// being cached, and the engine reports fatal outcomes so the caller
	// can checkpoint and exit with a resume hint.
	Ctx context.Context
	// Metrics receives the run's record; nil allocates a private set.
	Metrics *Metrics
}

// Engine runs every cell of a harness run: it contains and times each
// one, records it in Metrics, and, when it has a cache, answers and
// persists cells by fingerprint. It is safe for concurrent use by the
// figure harness's worker pool.
type Engine struct {
	cache   *Cache   // nil: no cache
	journal *Journal // nil exactly when cache is
	metrics *Metrics
	ctx     context.Context

	cellTimeout time.Duration
	maxFailures int
	failures    atomic.Int64

	// grace is how long a timed-out/canceled cell gets to notice its
	// context before the engine abandons its goroutine.
	grace time.Duration
}

// NewEngine builds an engine, opening the cache and journal under cfg.Dir
// when it is set.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	e := &Engine{
		metrics:     cfg.Metrics,
		ctx:         cfg.Ctx,
		cellTimeout: cfg.CellTimeout,
		maxFailures: cfg.MaxCellFailures,
		grace:       2 * time.Second,
	}
	if e.metrics == nil {
		e.metrics = &Metrics{}
	}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if cfg.Dir != "" {
		var err error
		if e.cache, err = OpenCache(cfg.Dir); err != nil {
			return nil, err
		}
		if e.journal, err = OpenJournal(filepath.Join(cfg.Dir, JournalName)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Announce records in Metrics that a fan-out of n more cells is
// starting; the worker pool calls it before running them.
func (e *Engine) Announce(n int) { e.metrics.announce(n) }

// Interrupted reports whether the sweep's context has been canceled.
func (e *Engine) Interrupted() bool { return e.ctx.Err() != nil }

// Checkpoint fsyncs the journal (the SIGINT/SIGTERM drain path).
func (e *Engine) Checkpoint() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Checkpoint()
}

// Close checkpoints and closes the journal.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Close()
}

// Outcome classifies what Cell did.
type Outcome int

const (
	// OutcomeRan: the cell simulated and its result is in dst (and, for a
	// cached cell barring a persistent write failure, in the cache).
	OutcomeRan Outcome = iota
	// OutcomeHit: dst was decoded from the cache; nothing simulated.
	OutcomeHit
	// OutcomeDegraded: the cell failed persistently (error or timeout) but
	// the failure budget absorbs it; the returned error describes the
	// cause and dst is untouched. The sweep continues.
	OutcomeDegraded
	// OutcomeFatal: the sweep must stop — interrupt, unfingerprintable
	// key, or exhausted failure budget. The returned error says which.
	OutcomeFatal
)

// String names the outcome for journals and tests.
func (o Outcome) String() string {
	switch o {
	case OutcomeRan:
		return "ran"
	case OutcomeHit:
		return "hit"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFatal:
		return "fatal"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Cell executes one sweep cell: consult the cache, else run with the
// configured timeout under the sweep context, persist the result
// immediately, and contain persistent failures. run must fill dst on
// success; on a cache hit dst is decoded from the stored entry instead.
// Without a cache, or for a NoCache key, the cell always runs and
// nothing is fingerprinted, journaled or persisted; containment, the
// failure budget and the record in Metrics are the same either way.
func (e *Engine) Cell(key CellKey, dst any, run func(ctx context.Context) error) (outcome Outcome, err error) {
	defer func() { e.metrics.cellDone(err != nil) }()
	if err := e.ctx.Err(); err != nil {
		return OutcomeFatal, fmt.Errorf("sweep: interrupted before %s: %w", key.Label(), err)
	}
	cached := e.cache != nil && !key.NoCache
	var fp string
	note := func(event string, cause error) error {
		if !cached {
			return nil
		}
		rec := Record{Event: event, Fingerprint: fp, Label: key.Label()}
		if cause != nil {
			rec.Err = cause.Error()
		}
		return e.journal.Append(rec)
	}
	if cached {
		if fp, err = key.Fingerprint(); err != nil {
			return OutcomeFatal, err
		}
		hit, corrupt := e.cache.Get(fp, dst)
		if corrupt {
			// Never trust a partial entry: drop it (Get already removed
			// the object), count it, and re-simulate as a plain miss.
			e.metrics.Corrupt.Add(1)
			if err := note("corrupt", nil); err != nil {
				return OutcomeFatal, err
			}
		}
		if hit {
			e.metrics.Hits.Add(1)
			if err := note("hit", nil); err != nil {
				return OutcomeFatal, err
			}
			return OutcomeHit, nil
		}
	}
	e.metrics.Misses.Add(1)
	if err := note("start", nil); err != nil {
		return OutcomeFatal, err
	}

	cctx := e.ctx
	if e.cellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(e.ctx, e.cellTimeout)
		defer cancel()
	}
	// Wall-clock only feeds the latency histogram (progress reporting);
	// it never reaches a cached result or a table.
	simStart := time.Now()
	runErr := e.runContained(key, cctx, run)
	e.metrics.observeLatency(time.Since(simStart))

	if e.ctx.Err() != nil {
		// Sweep-level interrupt: journaled as neither done nor failed.
		e.metrics.Canceled.Add(1)
		if err := note("interrupted", nil); err != nil {
			return OutcomeFatal, err
		}
		return OutcomeFatal, fmt.Errorf("sweep: interrupted during %s: %w", key.Label(), e.ctx.Err())
	}
	if runErr == nil {
		if !cached {
			return OutcomeRan, nil
		}
		retries, putErr := e.cache.Put(fp, key, dst)
		e.metrics.WriteRetries.Add(uint64(retries))
		if putErr != nil {
			// The in-memory result is still good; a sweep that cannot
			// persist keeps going and simply cannot skip this cell on
			// resume.
			e.metrics.WriteFailures.Add(1)
		}
		if err := note("done", putErr); err != nil {
			return OutcomeFatal, err
		}
		return OutcomeRan, nil
	}

	// Persistent per-cell failure (simulation error, panic, or timeout):
	// journal it and degrade unless the budget is spent.
	e.metrics.Degraded.Add(1)
	if err := note("failed", runErr); err != nil {
		return OutcomeFatal, err
	}
	if n := e.failures.Add(1); e.maxFailures >= 0 && n > int64(e.maxFailures) {
		return OutcomeFatal, fmt.Errorf("%w: %d cells failed (budget %d), last: %s: %v",
			ErrFailureBudget, n, e.maxFailures, key.Label(), runErr)
	}
	return OutcomeDegraded, fmt.Errorf("sweep: cell %s failed: %w", key.Label(), runErr)
}

// runContained runs the cell body under ctx, converting panics to errors
// and bounding how long the engine waits after the context fires.
func (e *Engine) runContained(key CellKey, ctx context.Context, run func(ctx context.Context) error) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("sweep: cell %s panicked: %v", key.Label(), r)
			}
		}()
		done <- run(ctx)
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		// Give the cell a grace window to observe the cancellation (the
		// simulator polls its context every few thousand ops); a cell
		// that ignores it is abandoned — its goroutine finishes into the
		// buffered channel and is collected.
		select {
		case err := <-done:
			if err == nil {
				// Finished despite the firing deadline/cancel: only a
				// timeout makes this reachable with a usable result, and
				// the result is valid — keep it.
				return nil
			}
			return err
		case <-time.After(e.grace):
			return fmt.Errorf("sweep: cell %s abandoned: %w", key.Label(), ctx.Err())
		}
	}
}
