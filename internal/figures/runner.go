// The parallel cell pipeline behind every simulation-backed figure: a
// bounded worker pool (stdlib only) fans out independent cells, each of
// which runs through the sweep engine (sweepCell), and collects results
// by index, so output tables are byte-identical to a serial pass
// regardless of completion order. Isolation, not locking, is the safety
// story: stats.Counter and rng.Source are intentionally not goroutine-safe,
// so every run gets its own *config.Config copy and derives all of its
// randomness from that copy (or from an rng.ForkLabel per-run label) —
// workers never share mutable simulation state.

package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ivleague/internal/atomicio"
	"ivleague/internal/config"
	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// parallelism resolves Options.Parallelism: values <= 0 mean one worker
// per available CPU.
func (o *Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// syncWriter serializes Write calls from concurrent workers so per-run
// progress lines never interleave mid-line.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// prepare readies an entry point's Options copy: Progress is made safe
// for concurrent workers, and a nil Sweep becomes an engine with no
// cache, so every cell runs through the same engine either way.
// Idempotent, so entry points call it unconditionally.
func (o *Options) prepare() error {
	if o.Progress != nil {
		if _, ok := o.Progress.(*syncWriter); !ok {
			o.Progress = &syncWriter{w: o.Progress}
		}
	}
	if o.Sweep == nil {
		e, err := sweep.NewEngine(sweep.EngineConfig{})
		if err != nil {
			return err
		}
		o.Sweep = e
	}
	return nil
}

// forEach runs fn(i) for every i in [0, n) on a bounded worker pool,
// after announcing the n cells to the sweep engine; each fn runs its
// cell through sweepCell, where the engine contains panics and records
// the cell. Callers collect results by writing into index i of a
// preallocated slice, which keeps output assembly deterministic no
// matter which worker finishes first. Every index runs even if earlier
// ones fail; the errors come back joined in index order (nil when all
// succeed).
func (o *Options) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	o.Sweep.Announce(n)
	par := min(o.parallelism(), n)
	errs := make([]error, n)
	// done counts completions (not indices), so the "[k/n]" prefix of the
	// -v lines doubles as a progress bar; their wall-clock is display
	// only and never reaches simulation state or an emitted table.
	var done atomic.Int64
	cell := func(i int) {
		//ivlint:allow determinism — the -v line's wall-clock is display only, never reaches simulation state
		start := time.Now()
		errs[i] = fn(i)
		//ivlint:allow determinism — the -v line's wall-clock is display only, never reaches simulation state
		o.progress("[%d/%d] cell %d done in %s", done.Add(1), n, i, time.Since(start).Round(time.Millisecond))
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				cell(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// benchmarkNames returns every benchmark name in sorted order (the map
// iteration order of workload.Benchmarks is not deterministic).
func benchmarkNames() []string {
	return stats.SortedKeys(workload.Benchmarks())
}

// aloneIPCs fans out the per-benchmark alone runs (the weighted-IPC
// denominators of Figures 15 and 17a) and returns them keyed by benchmark.
// Alone cells are cached like every other cell but may not degrade: a
// missing denominator would silently poison every normalized column, so a
// persistently failing alone run aborts the sweep.
func aloneIPCs(o *Options) (map[string]float64, error) {
	names := benchmarkNames()
	vals := make([]float64, len(names))
	err := o.forEach(len(names), func(i int) error {
		p, err := workload.ByName(names[i])
		if err != nil {
			return err
		}
		cfg := o.Cfg
		key := sweep.CellKey{Kind: "alone", Scheme: config.SchemeBaseline.String(), Unit: names[i], Config: &cfg}
		ipc, outcome, err := sweepCell(o, key, func(ctx context.Context) (float64, error) {
			return sim.RunAlone(&cfg, config.SchemeBaseline, p, sim.WithContext(ctx))
		})
		if outcome == sweep.OutcomeDegraded {
			return fmt.Errorf("figures: alone run %s is a required denominator: %w", names[i], err)
		}
		if err != nil {
			return fmt.Errorf("figures: alone run %s: %w", names[i], err)
		}
		vals[i] = ipc
		o.progress("alone %-14s IPC %.4f", names[i], ipc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = vals[i]
	}
	return out, nil
}

// mixSchemeJob is one (mix, scheme) simulation of a fan-out.
type mixSchemeJob struct {
	mix    workload.Mix
	scheme config.Scheme
}

// mixSchemeJobs flattens the mixes × schemes grid in declared order.
func mixSchemeJobs(mixes []workload.Mix, schemes []config.Scheme) []mixSchemeJob {
	jobs := make([]mixSchemeJob, 0, len(mixes)*len(schemes))
	for _, mix := range mixes {
		for _, s := range schemes {
			jobs = append(jobs, mixSchemeJob{mix: mix, scheme: s})
		}
	}
	return jobs
}

// runMixSchemes fans out one simulation per (mix, scheme) job. deriveCfg
// maps a job to the configuration its run uses (it must be a pure function
// of the job so that results do not depend on scheduling); tag prefixes
// the progress lines and namespaces the sweep-cache cells.
func runMixSchemes(o *Options, jobs []mixSchemeJob, deriveCfg func(mixSchemeJob) config.Config, tag string) ([]sim.Result, error) {
	out := make([]sim.Result, len(jobs))
	err := o.forEach(len(jobs), func(i int) error {
		cfg := deriveCfg(jobs[i])
		res, err := o.mixCell(tag, &cfg, jobs[i])
		if err != nil {
			return fmt.Errorf("figures: %s: %w", tag, err)
		}
		out[i] = res
		o.progress("%s %-4s %-18s failed=%v", tag, jobs[i].mix.Name, jobs[i].scheme, res.Failed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mixCell runs one (mix, scheme) simulation cell. Armed fault injection
// and trace export have effects a cached result cannot reproduce, so
// those cells never touch the cache. A contained per-cell failure
// (timeout, simulation error within the failure budget) comes back as a
// synthetic degraded Result, which the tables render as "deg" — the
// sweep keeps going.
func (o *Options) mixCell(tag string, cfg *config.Config, job mixSchemeJob) (sim.Result, error) {
	key := sweep.CellKey{Kind: "mix", Extra: tag, Scheme: job.scheme.String(), Unit: job.mix.Name, Config: cfg,
		NoCache: o.Inject != nil || o.TraceDir != ""}
	res, outcome, err := sweepCell(o, key, func(ctx context.Context) (sim.Result, error) {
		opts := append(o.Inject.MachineOptions(), sim.WithContext(ctx))
		var tracer *telemetry.Tracer
		if o.TraceDir != "" {
			tracer = telemetry.NewTracer(0, o.TraceSample)
			opts = append(opts, sim.WithTracer(tracer))
		}
		r, err := sim.RunMixErr(cfg, job.scheme, job.mix, opts...)
		if err != nil {
			return sim.Result{}, err
		}
		if r.Failed {
			if cerr := ctx.Err(); cerr != nil {
				// The failure is (or is masked by) the cell's cancellation:
				// surface it as an error so the engine never caches a
				// timed-out run as a measured outcome.
				return sim.Result{}, fmt.Errorf("%s: %w", r.FailMsg, cerr)
			}
		}
		if tracer != nil {
			if err := writeTraceFile(o.TraceDir, tag, job, tracer); err != nil {
				return sim.Result{}, err
			}
		}
		return r, nil
	})
	if outcome == sweep.OutcomeDegraded {
		return sim.Result{Scheme: job.scheme, Failed: true, Degraded: true, FailMsg: err.Error()}, nil
	}
	return res, err
}

// sweepCell runs one cell through Options.Sweep: cache hit, fresh run
// (persisted immediately when the engine has a cache), degraded
// containment, or fatal abort.
func sweepCell[T any](o *Options, key sweep.CellKey, run func(ctx context.Context) (T, error)) (T, sweep.Outcome, error) {
	var v T
	outcome, err := o.Sweep.Cell(key, &v, func(ctx context.Context) error {
		r, err := run(ctx)
		if err != nil {
			return err
		}
		v = r
		return nil
	})
	return v, outcome, err
}

// writeTraceFile exports one run's events as Chrome trace-event JSON into
// dir. Each worker writes its own file (atomically, so an interrupt never
// leaves a truncated trace), so no synchronization is needed.
func writeTraceFile(dir, tag string, job mixSchemeJob, tr *telemetry.Tracer) error {
	name := fmt.Sprintf("trace_%s_%s_%s.json", tag, job.mix.Name, job.scheme)
	f, err := atomicio.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("figures: trace: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Abort()
		return fmt.Errorf("figures: trace %s: %w", name, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("figures: trace %s: %w", name, err)
	}
	return nil
}
