// Command simbench is the repository's benchmark. It runs one named
// workload of the IvLeague simulator as a batch job on one goroutine,
// prints every end-to-end metric by name with its unit, checks each
// cell's simulated outputs, and ends with one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash simbench/run.sh --workload quick-sweep --seed 42 --seconds 40 --trace 0
//
// --trace 1 makes the separate traced run instead: it records spans
// around calls into each layer, writes them to a JSON file, and reports
// the per-layer metrics. See README.md for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"ivleague/internal/stats"
)

// metricDef names one reported metric; BENCHMARK.json lists the same.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of a run with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_cycles_per_op", "cycles/op", "lower"},
}

// report is the result line. Metrics maps a name to its value and unit.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// Timed calls read this thread's CPU clock (see cpuTime).
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: quick-sweep, large-steady or secmem-churn")
	seed := fs.Uint64("seed", goldenSeed, "seed of the simulated inputs (sim config seed and churn stream)")
	seconds := fs.Float64("seconds", 40, "wall-clock seconds the run measures for (tracing off)")
	traced := fs.Int("trace", 0, "1 makes the traced run: spans and per-layer metrics")
	spansPath := fs.String("spans", "", "file the traced run writes its spans to (default .bench_out/<workload>-seed<seed>.spans.json)")
	updateGolden := fs.String("update-golden", "", "pin this run's cell outputs as the golden file under this directory (seed 42 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	chk, err := newChecker(w, *seed, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}

	var rep report
	if *traced == 1 {
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_out/%s-seed%d.spans.json", w.name, *seed)
		}
		tr := traceRun(&w, chk, stdout)
		if err := tr.writeSpans(path); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		rep = tr.report()
	} else {
		res := measure(&w, *seconds, chk, stdout)
		fmt.Fprintf(stdout, "%s seed %d: %d complete passes, %d cells, %d failed\n",
			w.name, *seed, res.passes, res.attempted, res.failed)
		rep = newReport(res.attempted, res.failed, endToEnd, res.metrics())
	}
	if *updateGolden != "" {
		if *seed != goldenSeed {
			fmt.Fprintf(stderr, "simbench: --update-golden pins seed %d only\n", goldenSeed)
			return 2
		}
		if err := chk.writeGolden(*updateGolden, w.name, *seed); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	printMetrics(stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newReport keeps defs' metrics from values. A value that is not finite
// cannot be reported honestly, so it marks the run incorrect.
func newReport(attempted, failed int, defs []metricDef, values map[string]float64) report {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Correct = false
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep
}

func printMetrics(w io.Writer, rep report) {
	for _, n := range stats.SortedKeys(rep.Metrics) {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
