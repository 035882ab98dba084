package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/sim"
	"ivleague/internal/workload"
)

// quickCell returns the quick-sweep workload restricted to one cell.
func quickCell(t *testing.T, id string) benchWorkload {
	t.Helper()
	w, err := workloadByName("quick-sweep", goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range w.cells {
		if c.id() == id {
			w.cells = []cell{c}
			return w
		}
	}
	t.Fatalf("no cell %s", id)
	return w
}

// A pinned cell passes; the same cell under a changed cache size is
// reported as a failed cell whose message names the fields that moved.
func TestPerturbedConfigFailsCell(t *testing.T) {
	w := quickCell(t, "S-4/Baseline")
	chk, err := newChecker(w, goldenSeed, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res := measure(&w, 0, chk, io.Discard); res.attempted != 1 || res.failed != 0 {
		t.Fatalf("pinned cell: attempted %d, failed %d", res.attempted, res.failed)
	}

	w.cfg.L2.SizeBytes /= 2
	chk, err = newChecker(w, goldenSeed, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if res := measure(&w, 0, chk, &out); res.failed != 1 {
		t.Fatalf("perturbed cell: failed %d, want 1", res.failed)
	}
	for _, name := range []string{"IPC", "L3MissRate"} {
		if !strings.Contains(out.String(), name+": pinned") {
			t.Errorf("failure does not name moved field %s:\n%s", name, out.String())
		}
	}
}

// shortCell is a small S-1 machine, so a replay per scheme stays fast.
func shortCell(scheme config.Scheme) (benchWorkload, cell) {
	w := benchWorkload{name: "test", cfg: config.Default()}
	w.cfg.Sim.Seed = 7
	w.cfg.Sim.FootprintScale = 0.02
	w.cfg.Sim.WarmupInstr = 5_000
	w.cfg.Sim.MeasureInstr = 20_000
	mix, _ := workload.MixByName("S-1")
	c := cell{mix: mix, scheme: scheme}
	w.cells = []cell{c}
	return w, c
}

// The layer replay reproduces the real run's structural counts (cache
// hits and misses, TLB misses, verifications, metadata cache hits,
// NFLB/LMM hits, conversions, migrations) and final state, per scheme,
// and every IvLeague cell passes the isolation audit.
func TestReplayMatchesRun(t *testing.T) {
	for _, s := range perfSchemes {
		w, c := shortCell(s)
		chk, err := newChecker(w, w.cfg.Sim.Seed, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		res := &traceResult{tracer: newTracer(), acc: &layerAcc{v: map[string]float64{}}}
		if err := traceSimCell(res, &w, c, chk, newRuntimeReader(), 0, io.Discard); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, key := range []string{"workload.events", "pagetable.tlb.acc", "cache.accesses", "secmem.read.count", "sim.stage_ns"} {
			if res.acc.get(key, "") == 0 {
				t.Errorf("%v: replay counted no %s", s, key)
			}
		}
	}
}

// The fidelity check is not vacuous: a replay built from a different L1
// geometry than the real run is reported.
func TestFidelityReportsDivergentReplay(t *testing.T) {
	w, c := shortCell(config.SchemeIvLeagueBasic)
	res := &traceResult{tracer: newTracer(), acc: &layerAcc{v: map[string]float64{}}}
	m, err := sim.NewMachine(&w.cfg, c.scheme, c.mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	real, err := tracedRun(res, m, c.scheme, w.cfg.Core, c.id(), -1, newRuntimeReader())
	if err != nil {
		t.Fatal(err)
	}
	other := w.cfg
	other.L1.SizeBytes *= 2
	parts, err := buildParts(res.tracer, c.id(), -1, other, c, res.acc)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := replay(res.tracer, c.id(), -1, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := fidelity(real, ro)
	if len(moved) == 0 || !strings.Contains(strings.Join(moved, "\n"), ".l1.hits") {
		t.Fatalf("divergent replay not reported: %q", moved)
	}
}

// The churn stream is a function of the seed alone.
func TestChurnStreamSeeded(t *testing.T) {
	zipf := newChurnZipf()
	head := func(seed uint64) []rec {
		s := newChurnStream(seed, zipf, 1<<20)
		var out []rec
		for i := 0; i < 3; i++ {
			if _, err := s.next(); err != nil {
				t.Fatal(err)
			}
			out = append(out, s.calls...)
		}
		return out
	}
	if !reflect.DeepEqual(head(1), head(1)) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(head(1), head(2)) {
		t.Fatal("different seeds gave the same stream")
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "quick-sweep", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
