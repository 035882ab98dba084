package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ivleague/internal/atomicio"
	"ivleague/internal/config"
	"ivleague/internal/pagetable"
	"ivleague/internal/rng"
	"ivleague/internal/sim"
	"ivleague/internal/telemetry"
)

// span is one timed region of the traced run. Parent is the ID of the
// enclosing span (-1 for a cell's root); times are ns of the benchmark
// thread's CPU clock (see cpuTime) since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   string `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  uint64 `json:"calls"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Duration
	spans []span
}

func newTracer() *tracer { return &tracer{t0: cpuTime()} }

func (t *tracer) begin(cellID, name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: cellID, Name: name, Start: int64(cpuTime() - t.t0)})
	return id
}

// end closes a span, records the calls it covered, and returns its
// duration in ns.
func (t *tracer) end(id int, calls uint64) int64 {
	s := &t.spans[id]
	s.End = int64(cpuTime() - t.t0)
	s.Calls = calls
	return s.End - s.Start
}

func (t *tracer) writeSpans(path string) error {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(t.spans)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicio.WriteFile(path, b.Bytes(), 0o644)
}

// layerAcc sums raw per-layer quantities over a workload's cells. A key
// added with a scheme suffix also sums into key.suffix.
type layerAcc struct{ v map[string]float64 }

func (a *layerAcc) add(key, sfx string, x float64) {
	a.v[key] += x
	if sfx != "" {
		a.v[key+"."+sfx] += x
	}
}

func (a *layerAcc) get(key, sfx string) float64 {
	if sfx != "" {
		key += "." + sfx
	}
	return a.v[key]
}

func schemeSuffix(s config.Scheme) string {
	switch s {
	case config.SchemeBaseline:
		return "baseline"
	case config.SchemeIvLeagueBasic:
		return "basic"
	case config.SchemeIvLeagueInvert:
		return "invert"
	case config.SchemeIvLeaguePro:
		return "pro"
	}
	return strings.ToLower(s.String())
}

var (
	allSuffixes      = []string{"baseline", "basic", "invert", "pro"}
	ivleagueSuffixes = []string{"basic", "invert", "pro"}
)

// layerDef is one per-layer metric. A metric with perScheme suffixes is
// also reported once per scheme as name.suffix.
type layerDef struct {
	metricDef
	perScheme []string
	value     func(a *layerAcc, sfx string) float64
}

func ratio(num, den string) func(*layerAcc, string) float64 {
	return func(a *layerAcc, sfx string) float64 {
		d := a.get(den, sfx)
		if d == 0 {
			return 0
		}
		return a.get(num, sfx) / d
	}
}

func scaled(key string, f float64) func(*layerAcc, string) float64 {
	return func(a *layerAcc, sfx string) float64 { return a.get(key, sfx) * f }
}

func hitRate(key string) func(*layerAcc, string) float64 {
	return ratio(key+".hits", key+".acc")
}

var layerDefs = []layerDef{
	{metricDef{"workload.next_ns", "ns", "lower"}, nil, ratio("workload.ns", "workload.events")},
	{metricDef{"workload.events", "count", "lower"}, nil, scaled("workload.events", 1)},
	{metricDef{"workload.new_ms", "ms", "lower"}, nil, scaled("workload.new_ns", 1e-6)},
	{metricDef{"cache.new_ms", "ms", "lower"}, nil, scaled("cache.new_ns", 1e-6)},
	{metricDef{"secmem.new_ms", "ms", "lower"}, nil, scaled("secmem.new_ns", 1e-6)},
	{metricDef{"pagetable.tlb_lookup_ns", "ns", "lower"}, nil, ratio("pagetable.tlb_ns", "pagetable.tlb.acc")},
	{metricDef{"pagetable.tlb_hit_rate", "ratio", "higher"}, nil, hitRate("pagetable.tlb")},
	{metricDef{"osmodel.touch_ns", "ns", "lower"}, nil, ratio("osmodel.ns", "osmodel.calls")},
	{metricDef{"osmodel.page_faults", "count", "lower"}, nil, scaled("osmodel.page_faults", 1)},
	{metricDef{"osmodel.unmaps", "count", "lower"}, nil, scaled("osmodel.unmaps", 1)},
	{metricDef{"cache.access_ns", "ns", "lower"}, nil, ratio("cache.ns", "cache.accesses")},
	{metricDef{"cache.accesses", "count", "lower"}, nil, scaled("cache.accesses", 1)},
	{metricDef{"cache.l1_hit_rate", "ratio", "higher"}, nil, hitRate("cache.l1")},
	{metricDef{"cache.l2_hit_rate", "ratio", "higher"}, nil, hitRate("cache.l2")},
	{metricDef{"cache.l3_hit_rate", "ratio", "higher"}, nil, hitRate("cache.l3")},
	{metricDef{"cache.writebacks", "count", "lower"}, nil, scaled("cache.writebacks", 1)},
	{metricDef{"secmem.read_ns", "ns", "lower"}, allSuffixes, ratio("secmem.read.ns", "secmem.read.count")},
	{metricDef{"secmem.reads", "count", "lower"}, allSuffixes, scaled("secmem.read.count", 1)},
	{metricDef{"secmem.verifications", "count", "lower"}, allSuffixes, scaled("secmem.verifications", 1)},
	{metricDef{"secmem.path_len_mean", "levels", "lower"}, allSuffixes, ratio("secmem.pathlen.sum", "secmem.pathlen.count")},
	{metricDef{"secmem.ctr_cache_hit_rate", "ratio", "higher"}, allSuffixes, hitRate("secmem.ctr_cache")},
	{metricDef{"secmem.tree_cache_hit_rate", "ratio", "higher"}, allSuffixes, hitRate("secmem.tree_cache")},
	{metricDef{"secmem.write_ns", "ns", "lower"}, allSuffixes, ratio("secmem.write.ns", "secmem.write.count")},
	{metricDef{"secmem.writes", "count", "lower"}, allSuffixes, scaled("secmem.write.count", 1)},
	{metricDef{"secmem.map_ns", "ns", "lower"}, allSuffixes, ratio("secmem.map.ns", "secmem.map.count")},
	{metricDef{"secmem.unmap_ns", "ns", "lower"}, allSuffixes, ratio("secmem.unmap.ns", "secmem.unmap.count")},
	{metricDef{"secmem.maps", "count", "lower"}, nil, scaled("secmem.map.count", 1)},
	{metricDef{"secmem.unmaps", "count", "lower"}, nil, scaled("secmem.unmap.count", 1)},
	{metricDef{"core.assignments", "count", "lower"}, nil, scaled("core.assignments", 1)},
	{metricDef{"core.conversions", "count", "lower"}, ivleagueSuffixes, scaled("core.conversions", 1)},
	{metricDef{"core.nflb_hit_rate", "ratio", "higher"}, ivleagueSuffixes, hitRate("core.nflb")},
	{metricDef{"core.lmm_hit_rate", "ratio", "higher"}, ivleagueSuffixes, hitRate("core.lmm")},
	{metricDef{"core.alloc_failures", "count", "lower"}, nil, scaled("core.alloc_failures", 1)},
	{metricDef{"core.migrations", "count", "lower"}, nil, scaled("core.migrations", 1)},
	{metricDef{"core.migrations_back", "count", "lower"}, nil, scaled("core.migrations_back", 1)},
	{metricDef{"dram.accesses", "count", "lower"}, nil, scaled("dram.accesses", 1)},
	{metricDef{"dram.row_hit_rate", "ratio", "higher"}, nil, hitRate("dram.row")},
	{metricDef{"sim.run_s", "s", "lower"}, nil, scaled("sim.run_ns", 1e-9)},
	{metricDef{"sim.residual_ns_per_op", "ns", "lower"}, nil, func(a *layerAcc, _ string) float64 {
		if a.get("sim.ops", "") == 0 {
			return 0
		}
		return (a.get("sim.run_ns", "") - a.get("sim.stage_ns", "")) / a.get("sim.ops", "")
	}},
	{metricDef{"sim.layer_coverage", "ratio", "higher"}, nil, ratio("sim.stage_ns", "sim.run_ns")},
	{metricDef{"go.gc_cpu_s", "s", "lower"}, nil, scaled("go.gc_cpu_s", 1)},
	{metricDef{"go.alloc_bytes_per_op", "B/op", "lower"}, nil, ratio("go.alloc_bytes", "go.ops")},
}

// perLayer expands layerDefs into every reported per-layer metric.
func perLayer() []metricDef {
	var defs []metricDef
	for _, d := range layerDefs {
		defs = append(defs, d.metricDef)
		for _, sfx := range d.perScheme {
			defs = append(defs, metricDef{d.name + "." + sfx, d.unit, d.better})
		}
	}
	return defs
}

// traceResult is a traced run: its spans, per-layer sums and failures.
type traceResult struct {
	*tracer
	acc               *layerAcc
	attempted, failed int
}

func (r *traceResult) report() report {
	values := map[string]float64{}
	for _, d := range layerDefs {
		values[d.name] = d.value(r.acc, "")
		for _, sfx := range d.perScheme {
			values[d.name+"."+sfx] = d.value(r.acc, sfx)
		}
	}
	return newReport(r.attempted, r.failed, perLayer(), values)
}

// clockOverhead is the mean cost of one timed empty region, subtracted
// from sampled call times before they apportion a stage's time.
func clockOverhead() float64 {
	const n = 1 << 14
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := cpuTime()
		sum += cpuTime() - t0
	}
	return float64(sum) / n
}

// traceRun makes one pass over the workload's cells with spans on. Each
// cell's outputs are checked as in a run with tracing off; sim cells are
// also replayed layer by layer and must match their real run, and every
// IvLeague cell is rerun once under the isolation audit.
func traceRun(w *benchWorkload, chk *checker, out io.Writer) *traceResult {
	res := &traceResult{tracer: newTracer(), acc: &layerAcc{v: map[string]float64{}}}
	rr := newRuntimeReader()
	overhead := clockOverhead()
	var zipf *rng.Zipf
	if w.churn {
		zipf = newChurnZipf()
	}
	for _, c := range w.cells {
		res.attempted++
		var err error
		if w.churn {
			err = traceChurnCell(res, w, c, chk, rr, zipf, overhead, out)
		} else {
			err = traceSimCell(res, w, c, chk, rr, overhead, out)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(out, "FAILED %v\n", err)
		}
	}
	return res
}

// realRun is what the traced run keeps of a machine after Run.
type realRun struct {
	fields    []field
	snap      telemetry.Snapshot
	tlbMisses uint64
	mapped    int
	state     []byte
}

func traceSimCell(res *traceResult, w *benchWorkload, c cell, chk *checker, rr *runtimeReader, overhead float64, out io.Writer) error {
	tr, acc, id, sfx := res.tracer, res.acc, c.id(), schemeSuffix(c.scheme)
	root := tr.begin(id, "cell", -1)
	defer tr.end(root, 1)

	setup := tr.begin(id, "setup", root)
	cfg := w.cfg
	s := tr.begin(id, "sim.NewMachine", setup)
	m, err := sim.NewMachine(&cfg, c.scheme, c.mix, 0)
	tr.end(s, 1)
	if err != nil {
		tr.end(setup, 1)
		return fmt.Errorf("cell %s: %w", id, err)
	}
	parts, err := buildParts(tr, id, setup, w.cfg, c, acc)
	tr.end(setup, 1)
	if err != nil {
		return fmt.Errorf("cell %s: standalone setup: %w", id, err)
	}

	real, err := tracedRun(res, m, c.scheme, w.cfg.Core, id, root, rr)
	if err != nil {
		return fmt.Errorf("cell %s: %w", id, err)
	}
	if err := chk.check(id, real.fields); err != nil {
		return err
	}
	// The machine is garbage now; collect it, and the replay's logs after
	// the replay, so one cell's memory is never held twice.
	runtime.GC()
	if err := replayCell(res, id, root, sfx, parts, real, overhead, out); err != nil {
		return err
	}
	runtime.GC()

	if !c.scheme.IsIvLeague() {
		return nil
	}
	// The audit pass runs apart from the run span, so it does not
	// inflate sim.run_s.
	s = tr.begin(id, "audit", root)
	audit := telemetry.NewAudit()
	am, err := sim.NewMachine(&cfg, c.scheme, c.mix, 0, sim.WithAudit(audit))
	if err != nil {
		tr.end(s, 1)
		return fmt.Errorf("cell %s: audit: %w", id, err)
	}
	ares := am.Run()
	tr.end(s, am.OpCount())
	if ares.Failed {
		return fmt.Errorf("cell %s: audit run failed: %s", id, ares.FailMsg)
	}
	if digestOf(simFields(ares, am.Mem().StateDigest())) != digestOf(real.fields) {
		return fmt.Errorf("cell %s: the audited run's outputs differ from the run's", id)
	}
	return auditVerdict(id, audit.Report(), out)
}

// replayCell replays the cell layer by layer, checks it against the real
// run and adds its per-layer numbers.
func replayCell(res *traceResult, id string, root int, sfx string, parts *replayParts, real realRun, overhead float64, out io.Writer) error {
	s := res.begin(id, "replay", root)
	ro, err := replay(res.tracer, id, s, parts, overhead)
	res.end(s, 1)
	if err != nil {
		return fmt.Errorf("cell %s: replay: %w", id, err)
	}
	if moved := fidelity(real, ro); len(moved) > 0 {
		return fmt.Errorf("cell %s: replay differs from the real run: %s", id, strings.Join(moved, "; "))
	}
	addReplay(res.acc, sfx, ro)
	fmt.Fprintf(out, "cell %-24s replay ms: workload %.1f, pagetable+osmodel %.1f (tlb %.1f), cache %.1f, secmem %.1f; matches the run\n",
		id, ms(ro.stageNs[0]), ms(ro.stageNs[1]), ms(ro.tlbOnlyNs), ms(ro.stageNs[2]), ms(ro.stageNs[3]))
	return nil
}

// tracedRun times the real Machine.Run under the cell's run span and
// keeps what the fidelity check and the output check need, so the
// machine can be dropped before the replay.
func tracedRun(res *traceResult, m *sim.Machine, scheme config.Scheme, cc config.CoreConfig, id string, root int, rr *runtimeReader) (realRun, error) {
	rr.read()
	a0, g0 := rr.allocBytes(), rr.gcCPUSeconds()
	s := res.begin(id, "run", root)
	r := m.Run()
	runNs := res.end(s, m.OpCount())
	rr.read()
	res.acc.add("sim.run_ns", "", float64(runNs))
	res.acc.add("sim.ops", "", float64(m.OpCount()))
	res.acc.add("go.ops", "", float64(m.OpCount()))
	res.acc.add("go.alloc_bytes", "", float64(rr.allocBytes()-a0))
	res.acc.add("go.gc_cpu_s", "", rr.gcCPUSeconds()-g0)
	if r.Failed {
		return realRun{}, fmt.Errorf("run failed: %s", r.FailMsg)
	}
	levels := pagetable.ClassicLevels
	if scheme.IsIvLeague() {
		levels = pagetable.IvLeagueLevels
	}
	walk := float64(cc.TLBPenality + len(levels)*cc.PTWalkCost)
	state := m.Mem().StateDigest()
	return realRun{
		fields:    simFields(r, state),
		snap:      m.Registry().Snapshot(),
		tlbMisses: uint64(m.CycTLB/walk + 0.5),
		mapped:    len(m.Mem().MappedPages()),
		state:     state,
	}, nil
}

// fidelity compares the replay's structural counts with the real run's
// registry over the same (measured) window: L1/L2/L3 hits and misses and
// every secmem counter except DRAM timing, which the replay's synthetic
// clock changes. TLB misses come from the run's TLB cycle total, and the
// page-fault history from the final mapped set and state digest.
func fidelity(real realRun, ro *replayOut) []string {
	var moved []string
	for _, n := range real.snap.CounterNames() {
		var got uint64
		switch {
		case strings.HasPrefix(n, "secmem.dram."):
			continue
		case strings.HasPrefix(n, "secmem."):
			got = ro.final.Counter(n)
		case strings.HasSuffix(n, ".hits") || strings.HasSuffix(n, ".misses"):
			v, ok := ro.window[n]
			if !ok {
				continue // sim-level aggregates such as sim.nflb
			}
			got = v
		default:
			continue
		}
		if want := real.snap.Counter(n); want != got {
			moved = append(moved, fmt.Sprintf("%s: run %d, replay %d", n, want, got))
		}
	}
	if misses := ro.tlbLookups - ro.tlbHits; misses != real.tlbMisses {
		moved = append(moved, fmt.Sprintf("TLB misses: run %d, replay %d", real.tlbMisses, misses))
	}
	if real.mapped != ro.mapped {
		moved = append(moved, fmt.Sprintf("mapped pages: run %d, replay %d", real.mapped, ro.mapped))
	}
	if !bytes.Equal(real.state, ro.state) {
		moved = append(moved, "controller state digest")
	}
	return moved
}

func addReplay(acc *layerAcc, sfx string, ro *replayOut) {
	acc.add("workload.ns", "", float64(ro.stageNs[0]))
	acc.add("workload.events", "", float64(ro.steps))
	acc.add("pagetable.tlb_ns", "", float64(ro.tlbOnlyNs))
	acc.add("pagetable.tlb.hits", "", float64(ro.tlbHits))
	acc.add("pagetable.tlb.acc", "", float64(ro.tlbLookups))
	acc.add("osmodel.ns", "", float64(ro.stageNs[1]-ro.tlbOnlyNs))
	acc.add("osmodel.calls", "", float64(ro.osCalls))
	acc.add("osmodel.page_faults", "", float64(ro.faults))
	acc.add("osmodel.unmaps", "", float64(ro.unmaps))
	acc.add("cache.ns", "", float64(ro.stageNs[2]))
	for lvl, name := range []string{"cache.l1", "cache.l2", "cache.l3"} {
		acc.add(name+".hits", "", float64(ro.cacheHits[lvl]))
		acc.add(name+".acc", "", float64(ro.cacheAcc[lvl]))
		acc.add("cache.accesses", "", float64(ro.cacheAcc[lvl]))
	}
	acc.add("cache.writebacks", "", float64(ro.writebacks))
	acc.add("sim.stage_ns", "", float64(ro.stageNs[0]+ro.stageNs[1]+ro.stageNs[2]+ro.stageNs[3]))
	addSecmem(acc, sfx, ro.drv, ro.final, ro.secmemNsByKind)
}

// addSecmem sums a controller session's whole-run counts (across the
// warmup reset) and per-kind times.
func addSecmem(acc *layerAcc, sfx string, d *secmemDriver, final telemetry.Snapshot, nsByKind [numKinds]float64) {
	for _, k := range []struct {
		name string
		kind uint8
	}{{"read", kRead}, {"write", kWrite}, {"map", kMap}, {"unmap", kUnmap}} {
		acc.add("secmem."+k.name+".ns", sfx, nsByKind[k.kind])
		acc.add("secmem."+k.name+".count", sfx, float64(d.count[k.kind]))
	}
	total := func(n string) float64 { return float64(d.total(final, n)) }
	hits := func(key, counterPrefix string) {
		h, m := total(counterPrefix+".hits"), total(counterPrefix+".misses")
		acc.add(key+".hits", sfx, h)
		acc.add(key+".acc", sfx, h+m)
	}
	acc.add("secmem.verifications", sfx, total("secmem.verifications"))
	hits("secmem.ctr_cache", "secmem.ctr_cache")
	hits("secmem.tree_cache", "secmem.tree_cache")
	hits("core.lmm", "secmem.lmm")
	for _, n := range []string{"assignments", "conversions", "alloc_failures", "migrations", "migrations_back"} {
		acc.add("core."+n, sfx, total("secmem.core."+n))
	}
	acc.add("dram.accesses", sfx, total("secmem.dram.reads")+total("secmem.dram.writes"))
	acc.add("dram.row.hits", sfx, total("secmem.dram.row_hits"))
	acc.add("dram.row.acc", sfx, total("secmem.dram.row_hits")+total("secmem.dram.row_misses"))
	snaps := []telemetry.Snapshot{final}
	if d.hasPre {
		snaps = append(snaps, d.pre)
	}
	for _, s := range snaps {
		for _, n := range s.CounterNames() {
			switch {
			case strings.HasPrefix(n, "secmem.core.nflb.") && strings.HasSuffix(n, ".hits"):
				acc.add("core.nflb.hits", sfx, float64(s.Counter(n)))
				acc.add("core.nflb.acc", sfx, float64(s.Counter(n)))
			case strings.HasPrefix(n, "secmem.core.nflb.") && strings.HasSuffix(n, ".misses"):
				acc.add("core.nflb.acc", sfx, float64(s.Counter(n)))
			case strings.HasPrefix(n, "secmem.pathlen.") && strings.HasSuffix(n, ".count"):
				cnt := float64(s.Counter(n))
				acc.add("secmem.pathlen.count", sfx, cnt)
				acc.add("secmem.pathlen.sum", sfx, cnt*s.Gauge(strings.TrimSuffix(n, ".count")+".mean"))
			}
		}
	}
}

func traceChurnCell(res *traceResult, w *benchWorkload, c cell, chk *checker, rr *runtimeReader, zipf *rng.Zipf, overhead float64, out io.Writer) error {
	tr, acc, id, sfx := res.tracer, res.acc, c.id(), schemeSuffix(c.scheme)
	root := tr.begin(id, "cell", -1)
	defer tr.end(root, 1)

	setup := tr.begin(id, "setup", root)
	s := tr.begin(id, "secmem.New", setup)
	ctl, err := newChurnController(w, c)
	acc.add("secmem.new_ns", "", float64(tr.end(s, 1)))
	tr.end(setup, 1)
	if err != nil {
		return fmt.Errorf("cell %s: %w", id, err)
	}
	reg := telemetry.NewRegistry()
	ctl.RegisterMetrics(reg, "secmem")
	drv := &secmemDriver{ctl: ctl, reg: reg, sampleEvery: secmemSampleEvery}
	stream := newChurnStream(w.cfg.Sim.Seed, zipf, ctl.Layout().Pages)
	run := tr.begin(id, "churn", root)
	var callNs int64
	var alloc uint64
	var gc float64
	err = stream.drain(func(calls []rec) error {
		rr.read()
		a0, g0 := rr.allocBytes(), rr.gcCPUSeconds()
		ch := tr.begin(id, "chunk", run)
		err := drv.execSampled(calls)
		callNs += tr.end(ch, uint64(len(calls)))
		rr.read()
		alloc += rr.allocBytes() - a0
		gc += rr.gcCPUSeconds() - g0
		return err
	})
	tr.end(run, drv.calls)
	if err != nil {
		return fmt.Errorf("cell %s: %w", id, err)
	}
	snap := reg.Snapshot()
	if err := chk.check(id, churnFields(drv.latSum, drv.calls, snap, ctl.StateDigest())); err != nil {
		return err
	}
	addSecmem(acc, sfx, drv, snap, apportion(callNs, drv, overhead))
	acc.add("go.ops", "", float64(drv.calls))
	acc.add("go.alloc_bytes", "", float64(alloc))
	acc.add("go.gc_cpu_s", "", gc)
	fmt.Fprintf(out, "cell %-24s %d controller calls in %.1f ms\n", id, drv.calls, ms(callNs))

	if !c.scheme.IsIvLeague() {
		return nil
	}
	s = tr.begin(id, "audit", root)
	defer tr.end(s, 1)
	actl, err := newChurnController(w, c)
	if err != nil {
		return fmt.Errorf("cell %s: audit: %w", id, err)
	}
	audit := telemetry.NewAudit()
	actl.SetAudit(audit)
	adrv := &secmemDriver{ctl: actl, reg: telemetry.NewRegistry()}
	if err := newChurnStream(w.cfg.Sim.Seed, zipf, actl.Layout().Pages).drain(adrv.exec); err != nil {
		return fmt.Errorf("cell %s: audit: %w", id, err)
	}
	return auditVerdict(id, audit.Report(), out)
}

// auditVerdict fails a cell whose IvLeague scheme shared a tree node
// across domains.
func auditVerdict(id string, rep telemetry.Report, out io.Writer) error {
	if !rep.Isolated() {
		return fmt.Errorf("cell %s: isolation audit: %d metadata nodes shared across domains (%d cross-domain touches)",
			id, rep.SharedNodes, rep.CrossDomainTouches)
	}
	fmt.Fprintf(out, "cell %-24s isolation audit: %d domains, %d metadata nodes, none shared\n", id, rep.Domains, rep.Nodes)
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
