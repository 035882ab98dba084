package figures

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ivleague/internal/sim"
	"ivleague/internal/sweep"
)

// prepared returns o after prepare, as every figure entry point does.
func prepared(t *testing.T, o *Options) *Options {
	t.Helper()
	if err := o.prepare(); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8, 100} {
		o := prepared(t, &Options{Parallelism: par})
		const n = 37
		var hits [n]int32
		if err := o.forEach(n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("par=%d: index %d ran %d times", par, i, h)
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	o := prepared(t, &Options{Parallelism: 4})
	var ran int32
	err := o.forEach(10, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 2 || i == 7 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors were dropped")
	}
	if ran != 10 {
		t.Fatalf("only %d/10 indices ran after a failure", ran)
	}
	msg := err.Error()
	i2, i7 := strings.Index(msg, "boom 2"), strings.Index(msg, "boom 7")
	if i2 < 0 || i7 < 0 || i2 > i7 {
		t.Fatalf("errors missing or out of index order: %q", msg)
	}
}

// TestForEachRecoversPanics: a cell body that panics becomes that cell's
// error, and every other cell of the fan-out still runs.
func TestForEachRecoversPanics(t *testing.T) {
	o := prepared(t, &Options{Parallelism: 3})
	var ran atomic.Int32
	err := o.forEach(5, func(i int) error {
		key := sweep.CellKey{Kind: "test", Unit: fmt.Sprint(i)}
		_, _, err := sweepCell(o, key, func(context.Context) (int, error) {
			ran.Add(1)
			if i == 3 {
				panic("figure bug")
			}
			return i, nil
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "figure bug") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if !strings.Contains(err.Error(), "test 3") {
		t.Fatalf("error does not name the panicking cell: %v", err)
	}
	if ran.Load() != 5 {
		t.Fatalf("only %d/5 cells ran after a panic", ran.Load())
	}
}

func TestSyncWriterKeepsLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	o := prepared(t, &Options{Parallelism: 8, Progress: &buf})
	if err := o.forEach(200, func(i int) error {
		o.progress("line %d of a progress report", i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// forEach adds one "[k/n] cell i done" completion line per cell on top
	// of the 200 lines fn prints; both kinds must arrive unfragmented.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	var fnLines, cellLines int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "line ") && strings.HasSuffix(l, "of a progress report"):
			fnLines++
		case strings.HasPrefix(l, "[") && strings.Contains(l, "] cell ") && strings.Contains(l, " done in "):
			cellLines++
		default:
			t.Fatalf("interleaved progress line: %q", l)
		}
	}
	if fnLines != 200 || cellLines != 200 {
		t.Fatalf("got %d fn lines and %d completion lines, want 200 each", fnLines, cellLines)
	}
	// Wrapping twice must not double-lock.
	w, e := o.Progress, o.Sweep
	prepared(t, o)
	if o.Progress != w || o.Sweep != e {
		t.Fatal("prepare is not idempotent")
	}
}

func TestRunReturnsErrorInsteadOfPanicking(t *testing.T) {
	o := tinyOptions(t, "S-1")
	o.Cfg.Core.Count = 0 // every machine build fails
	if _, err := Run(o); err == nil {
		t.Fatal("Run with an impossible config did not return an error")
	}
}

// renderRunSet renders every table derived from a RunSet.
func renderRunSet(t *testing.T, rs *RunSet) string {
	t.Helper()
	f15, err := rs.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	return f15.String() + rs.Fig16().String() + rs.Fig17b().String() +
		rs.Fig18().String() + rs.Fig19().String()
}

func TestRunParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := tinyOptions(t, "S-1", "L-2")
	o.Cfg.Sim.WarmupInstr = 2_000
	o.Cfg.Sim.MeasureInstr = 6_000

	o.Parallelism = 1
	serial, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 8
	parallel, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Alone, parallel.Alone) {
		t.Fatalf("alone IPCs diverge:\nserial:   %v\nparallel: %v", serial.Alone, parallel.Alone)
	}
	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatal("per-(mix, scheme) results diverge between -j 1 and -j 8")
	}
	st, pt := renderRunSet(t, serial), renderRunSet(t, parallel)
	if st != pt {
		t.Fatalf("rendered tables diverge:\n-- j=1 --\n%s\n-- j=8 --\n%s", st, pt)
	}
}

func TestFig22ParallelismDeterminism(t *testing.T) {
	o := tinyOptions(t, "S-1")
	o.Parallelism = 1
	st, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	serial := st.String()
	o.Parallelism = 8
	pt, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	parallel := pt.String()
	if serial != parallel {
		t.Fatalf("Fig22 diverges:\n-- j=1 --\n%s\n-- j=8 --\n%s", serial, parallel)
	}
}

func TestWeightedIPCMissingAloneIsError(t *testing.T) {
	rs := &RunSet{Alone: map[string]float64{}}
	res := sim.Result{Bench: []string{"gcc"}, IPC: []float64{1.0}}
	if _, err := rs.weightedIPC(res); err == nil {
		t.Fatal("missing alone IPC did not error")
	}
	// A failed run is a measured outcome, not an error.
	res.Failed = true
	if w, err := rs.weightedIPC(res); err != nil || w != 0 {
		t.Fatalf("failed run: w=%v err=%v", w, err)
	}
}
