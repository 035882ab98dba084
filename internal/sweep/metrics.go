package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// cellLatMaxMs bounds the latency histogram at one bucket per
// millisecond up to a minute; slower cells land in the overflow bucket
// and quantiles report cellLatMaxMs+1.
const cellLatMaxMs = 60_000

// rateWindow is how many recent cell completions the rolling rate (and
// therefore the ETA) is computed over. A window, not the whole run, so
// the ETA tracks the current fan-out's cell cost instead of averaging a
// cheap fan-out against an expensive one.
const rateWindow = 32

// Metrics is the one record of a harness run: what the cache did, how
// many cells were announced, finished and failed, the rolling completion
// rate, and one latency histogram over the cells that simulated. The
// cache counters are atomic so concurrent workers bump them without
// locks; the progress record sits under mu so readers (the live server)
// get a consistent report while workers finish cells. Register publishes
// everything into a telemetry.Registry.
type Metrics struct {
	Hits          atomic.Uint64 // cells answered from the cache
	Misses        atomic.Uint64 // cells that had to simulate
	Corrupt       atomic.Uint64 // cache entries rejected (truncated/garbage/version)
	WriteRetries  atomic.Uint64 // transient cache-write I/O retries
	WriteFailures atomic.Uint64 // cache writes abandoned after all retries
	Degraded      atomic.Uint64 // cells that failed persistently, counted against the failure budget
	Canceled      atomic.Uint64 // cells abandoned by a sweep interrupt

	mu        sync.Mutex
	start     time.Time // first announce: the run's elapsed clock
	announced int
	done      int
	failed    int
	// latMs holds one sample per cell that simulated; cache hits are
	// excluded, as they would drown the simulation-cost signal in ~0ms
	// samples.
	latMs    *stats.Histogram
	maxLatMs int
	recent   [rateWindow]time.Time // completion times, a ring over recentN
	recentN  int
}

// announce records that a fan-out of n more cells is starting. Totals
// are cumulative: a harness run is several sequential fan-outs, and the
// ETA is relative to the cells announced so far.
func (m *Metrics) announce(n int) {
	m.mu.Lock()
	if m.start.IsZero() {
		m.start = time.Now()
	}
	m.announced += n
	m.mu.Unlock()
}

// cellDone records one finished cell, whatever its outcome.
func (m *Metrics) cellDone(failed bool) {
	now := time.Now()
	m.mu.Lock()
	m.done++
	if failed {
		m.failed++
	}
	m.recent[m.recentN%rateWindow] = now
	m.recentN++
	m.mu.Unlock()
}

// observeLatency records one simulated cell's wall-clock duration.
func (m *Metrics) observeLatency(d time.Duration) {
	ms := int(d.Milliseconds())
	m.mu.Lock()
	if m.latMs == nil {
		m.latMs = stats.NewHistogram(cellLatMaxMs)
	}
	m.latMs.Observe(ms)
	m.maxLatMs = max(m.maxLatMs, ms)
	m.mu.Unlock()
}

// LatencyQuantiles is the simulated-cell latency digest of a
// ProgressReport, in milliseconds.
type LatencyQuantiles struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  int     `json:"p50_ms"`
	P90Ms  int     `json:"p90_ms"`
	P99Ms  int     `json:"p99_ms"`
	MaxMs  int     `json:"max_ms"`
}

// ProgressReport is the JSON document served at /progress.
type ProgressReport struct {
	// TotalCells is the number of cells announced so far; it grows as
	// the harness reaches later figures, so Done/Total is a lower bound
	// on overall progress, exact within a fan-out.
	TotalCells int `json:"total_cells"`
	DoneCells  int `json:"done_cells"`
	// FailedCells counts cells that ended in an error: degraded, fatal
	// or interrupted.
	FailedCells   int              `json:"failed_cells"`
	DegradedCells uint64           `json:"degraded_cells"`
	ElapsedSec    float64          `json:"elapsed_sec"`
	CellsPerSec   float64          `json:"cells_per_sec"` // rolling, last rateWindow cells
	ETASec        float64          `json:"eta_sec"`       // -1 when unknown (no rate or no remaining total)
	Latency       LatencyQuantiles `json:"cell_latency"`
}

// Progress digests the run so far.
func (m *Metrics) Progress() ProgressReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := ProgressReport{
		TotalCells:    m.announced,
		DoneCells:     m.done,
		FailedCells:   m.failed,
		DegradedCells: m.Degraded.Load(),
		ETASec:        -1,
		Latency:       LatencyQuantiles{MaxMs: m.maxLatMs},
	}
	if !m.start.IsZero() {
		r.ElapsedSec = time.Since(m.start).Seconds()
	}
	if h := m.latMs; h != nil {
		r.Latency.Count, r.Latency.MeanMs = h.Count(), h.Mean()
		r.Latency.P50Ms, r.Latency.P90Ms, r.Latency.P99Ms = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	}
	// Rolling rate over the last min(recentN, rateWindow) completions.
	if n := min(m.recentN, rateWindow); n >= 2 {
		newest := m.recent[(m.recentN-1)%rateWindow]
		oldest := m.recent[(m.recentN-n)%rateWindow]
		if span := newest.Sub(oldest).Seconds(); span > 0 {
			r.CellsPerSec = float64(n-1) / span
		}
	}
	if r.CellsPerSec > 0 && m.announced >= m.done {
		r.ETASec = float64(m.announced-m.done) / r.CellsPerSec
	}
	return r
}

// Register publishes the record as gauges in r: the cache counters under
// sweep.cache.*, the cell counts and latency digest under sweep.cell.*.
func (m *Metrics) Register(r *telemetry.Registry) {
	gauge := func(name string, v *atomic.Uint64) {
		r.RegisterGauge(name, func() float64 { return float64(v.Load()) })
	}
	gauge("sweep.cache.hits", &m.Hits)
	gauge("sweep.cache.misses", &m.Misses)
	gauge("sweep.cache.corrupt", &m.Corrupt)
	gauge("sweep.cache.write_retries", &m.WriteRetries)
	gauge("sweep.cache.write_failures", &m.WriteFailures)
	gauge("sweep.cell.degraded", &m.Degraded)
	gauge("sweep.cell.canceled", &m.Canceled)
	// The progress record publishes through a sampler so counts and
	// quantiles are read under the lock at snapshot time.
	r.RegisterSampler(func(s *telemetry.Sample) {
		p := m.Progress()
		s.Gauge("sweep.cell.announced", float64(p.TotalCells))
		s.Gauge("sweep.cell.done", float64(p.DoneCells))
		s.Gauge("sweep.cell.failed", float64(p.FailedCells))
		s.Counter("sweep.cell.latency_ms.count", p.Latency.Count)
		s.Gauge("sweep.cell.latency_ms.mean", p.Latency.MeanMs)
		s.Gauge("sweep.cell.latency_ms.p50", float64(p.Latency.P50Ms))
		s.Gauge("sweep.cell.latency_ms.p99", float64(p.Latency.P99Ms))
	})
}

// Summary renders a one-line report of the run: cell counts, cache
// behaviour, and the simulated-cell latency digest when any cell ran.
func (m *Metrics) Summary() string {
	p := m.Progress()
	s := fmt.Sprintf("sweep: %d/%d cells done, %d failed; %d cached, %d simulated, %d degraded, %d corrupt entries dropped, %d write retries",
		p.DoneCells, p.TotalCells, p.FailedCells, m.Hits.Load(), m.Misses.Load(), p.DegradedCells, m.Corrupt.Load(), m.WriteRetries.Load())
	if l := p.Latency; l.Count > 0 {
		s += fmt.Sprintf(", cell latency p50/p99/mean %dms/%dms/%.0fms", l.P50Ms, l.P99Ms, l.MeanMs)
	}
	return s
}
