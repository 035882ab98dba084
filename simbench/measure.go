package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ivleague/internal/rng"
	"ivleague/internal/sim"
)

// cellRun is what one cell measured. setup is the time inside
// constructors, timed the time inside every other timed call (Machine.Run,
// or the controller calls of a churn session).
type cellRun struct {
	setup, timed time.Duration
	alloc        uint64 // heap bytes allocated inside the timed calls
	live         uint64 // live heap after a forced GC, the cell still reachable
	ops          uint64 // simulated instructions, or controller calls
	cycles       float64
	instr        float64
	fields       []field
	err          error
}

// setupSamples is how many times a cell's constructors run: setup is
// short, so one build is too few samples for a steady median. The cell
// keeps the last build.
const setupSamples = 5

// timedSetup runs build setupSamples times and returns the median time
// and the heap bytes of one build. The discarded builds are collected
// before the caller's timed calls start.
func timedSetup(rr *runtimeReader, build func() error) (time.Duration, uint64, error) {
	var times []float64
	var alloc uint64
	for i := 0; i < setupSamples; i++ {
		var err error
		d, a := rr.timedCall(func() { err = build() })
		if err != nil {
			return 0, 0, err
		}
		times = append(times, float64(d))
		alloc = a
	}
	runtime.GC()
	return time.Duration(median(times)), alloc, nil
}

// runSimCell builds and runs one machine with tracing off.
func runSimCell(w *benchWorkload, c cell, rr *runtimeReader) cellRun {
	var r cellRun
	var m *sim.Machine
	var err error
	cfg := w.cfg
	r.setup, r.alloc, err = timedSetup(rr, func() error {
		m, err = sim.NewMachine(&cfg, c.scheme, c.mix, 0)
		return err
	})
	if err != nil {
		r.err = fmt.Errorf("cell %s: %w", c.id(), err)
		return r
	}
	var res sim.Result
	d, a := rr.timedCall(func() { res = m.Run() })
	r.timed, r.alloc = d, r.alloc+a
	r.ops = m.OpCount()
	if res.Failed {
		r.err = fmt.Errorf("cell %s: run failed: %s", c.id(), res.FailMsg)
		return r
	}
	r.cycles, r.instr = simulatedCycles(res, w.cfg.Sim.MeasureInstr)
	r.fields = simFields(res, m.Mem().StateDigest())
	r.live = rr.liveHeap()
	runtime.KeepAlive(m)
	return r
}

// simulatedCycles returns the measured window's simulated cycles summed
// over threads (instructions / IPC) and the instructions they retired.
func simulatedCycles(res sim.Result, measureInstr uint64) (cycles, instr float64) {
	n := float64(measureInstr)
	for _, ipc := range res.IPC {
		if ipc > 0 {
			cycles += n / ipc
		}
		instr += n
	}
	return cycles, instr
}

// cellSamples are one cell's measurements, one per pass.
type cellSamples struct {
	setup, timed, alloc []float64
	ops                 uint64
	cycles, instr       float64
}

// e2eResult is a run with tracing off: passes over the cells run back to
// back until the time budget would be exceeded. Each host metric sums the
// per-cell medians over the cell's runs, so one slow stretch of a run
// moves only the samples it overlaps.
type e2eResult struct {
	attempted, failed int
	passes            int // complete passes
	cells             []cellSamples
	liveMax           uint64
}

// measure runs passes over the workload's cells for about seconds, on
// one goroutine, checking each cell's outputs outside the timed calls.
// After the first full pass it stops before any cell whose last run,
// checks included, would overrun the budget, so the budget is used to
// the last cell rather than the last whole pass.
func measure(w *benchWorkload, seconds float64, chk *checker, out io.Writer) e2eResult {
	rr := newRuntimeReader()
	var zipf *rng.Zipf
	if w.churn {
		zipf = newChurnZipf()
	}
	res := e2eResult{cells: make([]cellSamples, len(w.cells))}
	budget := time.Duration(seconds * float64(time.Second))
	last := make([]time.Duration, len(w.cells))
	start := time.Now()
	for {
		for i, c := range w.cells {
			if res.passes > 0 && time.Since(start)+last[i] > budget {
				return res
			}
			t0 := time.Now()
			var r cellRun
			if w.churn {
				r = runChurnCell(w, c, rr, zipf)
			} else {
				r = runSimCell(w, c, rr)
			}
			res.attempted++
			if r.err == nil {
				r.err = chk.check(c.id(), r.fields)
			}
			if r.err != nil {
				res.failed++
				fmt.Fprintf(out, "FAILED %v\n", r.err)
			}
			cs := &res.cells[i]
			cs.setup = append(cs.setup, r.setup.Seconds())
			cs.timed = append(cs.timed, r.timed.Seconds())
			cs.alloc = append(cs.alloc, float64(r.alloc))
			cs.ops, cs.cycles, cs.instr = r.ops, r.cycles, r.instr
			if r.live > res.liveMax {
				res.liveMax = r.live
			}
			last[i] = time.Since(t0)
		}
		res.passes++
	}
}

// metrics returns every end-to-end metric of the run.
func (res e2eResult) metrics() map[string]float64 {
	var ops uint64
	var timed, setup, alloc, cycles, instr float64
	for _, c := range res.cells {
		ops += c.ops
		timed += median(c.timed)
		setup += median(c.setup)
		alloc += median(c.alloc)
		cycles += c.cycles
		instr += c.instr
	}
	return map[string]float64{
		"ops_per_s":         float64(ops) / timed,
		"wall_s":            setup + timed,
		"setup_s":           setup,
		"live_heap_mb":      float64(res.liveMax) / 1e6,
		"alloc_mb":          alloc / 1e6,
		"sim_cycles_per_op": cycles / instr,
	}
}
