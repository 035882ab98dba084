package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ivleague/internal/telemetry"
)

func testSnapshot() telemetry.Snapshot {
	return telemetry.Snapshot{
		Phase: "measure",
		Counters: map[string]uint64{
			"secmem.dram.reads": 1234,
			"core0.l1.hits":     7,
			"sweep.cell.count":  0,
		},
		Gauges: map[string]float64{
			"nflb.hit_rate":  0.625,
			"weird name-%$":  -3,
			"0starts.digit":  1,
			"ratio.nan":      math.NaN(),
			"ratio.inf":      math.Inf(1),
			"ratio.ninf":     math.Inf(-1),
			"big.float":      1e21,
			"progress.cells": 42,
		},
	}
}

// owner returns the current owner's name, "" when free.
func owner(g *CPUProfileGuard) string {
	if g == nil {
		return ""
	}
	if p := g.owner.Load(); p != nil {
		return *p
	}
	return ""
}

// TestWritePrometheusGolden pins the exposition byte-for-byte: families
// sorted (counters before gauges, each alphabetical), names sanitized,
// the phase on one synthetic labeled gauge, NaN/±Inf spelled out.
func TestWritePrometheusGolden(t *testing.T) {
	const want = `# HELP ivleague_phase run phase marker (1 = current)
# TYPE ivleague_phase gauge
ivleague_phase{phase="measure"} 1
# TYPE core0_l1_hits counter
core0_l1_hits 7
# TYPE secmem_dram_reads counter
secmem_dram_reads 1234
# TYPE sweep_cell_count counter
sweep_cell_count 0
# TYPE _0starts_digit gauge
_0starts_digit 1
# TYPE big_float gauge
big_float 1e+21
# TYPE nflb_hit_rate gauge
nflb_hit_rate 0.625
# TYPE progress_cells gauge
progress_cells 42
# TYPE ratio_inf gauge
ratio_inf +Inf
# TYPE ratio_nan gauge
ratio_nan NaN
# TYPE ratio_ninf gauge
ratio_ninf -Inf
# TYPE weird_name___ gauge
weird_name___ -3
`
	var b strings.Builder
	if err := WritePrometheus(&b, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWritePrometheusDeterministic renders the same snapshot many times
// and demands identical bytes — map iteration order must never leak.
func TestWritePrometheusDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, testSnapshot()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"secmem.dram.reads": "secmem_dram_reads",
		"ok_name:sub":       "ok_name:sub",
		"9lives":            "_9lives",
		"":                  "_",
		"a b%c":             "a_b_c",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProgressTracker(t *testing.T) {
	p := NewProgress()
	r := p.Report(-1)
	if r.TotalCells != 0 || r.DoneCells != 0 || r.ETASec != -1 {
		t.Fatalf("fresh tracker report: %+v", r)
	}

	p.FanOut(10)
	p.FanOut(5) // totals are cumulative across fan-outs
	for i := 0; i < 6; i++ {
		p.CellDone(time.Duration(i+1)*10*time.Millisecond, i == 3)
	}
	r = p.Report(2)
	if r.TotalCells != 15 || r.DoneCells != 6 || r.FailedCells != 1 {
		t.Fatalf("counts: %+v", r)
	}
	if r.DegradedCells != 2 {
		t.Fatalf("degraded passthrough: %+v", r)
	}
	if r.Latency.Count != 6 || r.Latency.MaxMs != 60 {
		t.Fatalf("latency digest: %+v", r.Latency)
	}
	if r.Latency.P50Ms < 10 || r.Latency.P50Ms > 60 {
		t.Fatalf("p50 out of observed range: %+v", r.Latency)
	}
	if r.ElapsedSec < 0 {
		t.Fatalf("elapsed: %+v", r)
	}
	// 6 completions within this test's microseconds: the rolling rate is
	// huge but finite, and the ETA must be a non-negative number.
	if r.CellsPerSec < 0 || math.IsNaN(r.CellsPerSec) || math.IsInf(r.CellsPerSec, 0) {
		t.Fatalf("rate: %+v", r)
	}
	if r.ETASec != -1 && r.ETASec < 0 {
		t.Fatalf("eta: %+v", r)
	}

	// A nil tracker is a valid observer (server without progress source).
	var nilP *Progress
	nilP.FanOut(3)
	nilP.CellDone(time.Second, false)
}

func TestProgressRegister(t *testing.T) {
	p := NewProgress()
	p.FanOut(4)
	p.CellDone(20*time.Millisecond, false)
	reg := telemetry.NewRegistry()
	p.Register(reg)
	snap := reg.Snapshot()
	if got := snap.Gauge("progress.cells.total"); got != 4 {
		t.Fatalf("total gauge = %v", got)
	}
	if got := snap.Gauge("progress.cells.done"); got != 1 {
		t.Fatalf("done gauge = %v", got)
	}
	if got := snap.Gauge("progress.cell_latency.p50_ms"); got != 20 {
		t.Fatalf("p50 gauge = %v", got)
	}
}

func TestCPUProfileGuard(t *testing.T) {
	var g CPUProfileGuard
	if owner(&g) != "" {
		t.Fatal("fresh guard has an owner")
	}
	if err := g.Acquire("file.prof"); err != nil {
		t.Fatal(err)
	}
	if owner(&g) != "file.prof" {
		t.Fatalf("owner = %q", owner(&g))
	}
	if err := g.Acquire("endpoint"); err == nil {
		t.Fatal("second Acquire succeeded")
	} else if !strings.Contains(err.Error(), "file.prof") {
		t.Fatalf("conflict error does not name the owner: %v", err)
	}
	g.Release()
	if err := g.Acquire("endpoint"); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	// Nil guard: everything is a no-op that always grants.
	var nilG *CPUProfileGuard
	if err := nilG.Acquire("x"); err != nil {
		t.Fatal(err)
	}
	nilG.Release()
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	var hits atomic.Uint64
	hits.Store(99)
	reg.RegisterGauge("test.hits", func() float64 { return float64(hits.Load()) })

	prog := NewProgress()
	prog.FanOut(3)
	prog.CellDone(10*time.Millisecond, false)

	guard := &CPUProfileGuard{}
	srv, err := StartServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		Snapshot: reg.Snapshot,
		Progress: func() ProgressReport { return prog.Report(-1) },
		Profiles: guard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body, ctype := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "test_hits 99") {
		t.Fatalf("/metrics missing gauge:\n%s", body)
	}

	code, body, ctype = get("/progress")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("/progress: %d %q", code, ctype)
	}
	var rep ProgressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if rep.TotalCells != 3 || rep.DoneCells != 1 {
		t.Fatalf("/progress content: %+v", rep)
	}

	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ index: %d", code)
	}

	// While a file profile owns the profiler, the endpoint must refuse
	// with 409 and name the owner, not silently misprofile.
	if err := guard.Acquire("-cpuprofile bench.prof"); err != nil {
		t.Fatal(err)
	}
	code, body, _ = get("/debug/pprof/profile?seconds=1")
	if code != http.StatusConflict {
		t.Fatalf("guarded profile endpoint: %d, want 409", code)
	}
	if !strings.Contains(body, "-cpuprofile bench.prof") {
		t.Fatalf("conflict body does not name the owner: %q", body)
	}
	guard.Release()
}

func TestPublisher(t *testing.T) {
	var p Publisher
	if got := p.Latest(); got.Counters != nil || got.Phase != "" {
		t.Fatalf("zero publisher latest: %+v", got)
	}
	p.Publish(telemetry.Snapshot{Phase: "measure", Counters: map[string]uint64{"a": 1}})
	if got := p.Latest(); got.Phase != "measure" || got.Counters["a"] != 1 {
		t.Fatalf("latest: %+v", got)
	}
}
