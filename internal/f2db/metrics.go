package f2db

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"cubefc/internal/derivation"
)

// This file is the engine's observability surface. All counters are plain
// atomics so the hot read path (forecast queries under the shared lock)
// never funnels through the write lock to record what it did; a Metrics()
// snapshot is likewise lock-free and safe to call from monitoring
// goroutines at any rate.

// latencyBucketCount sizes the log-bucketed histogram: bucket i counts
// observations d with 2^(i-1) ns <= d < 2^i ns (bucket 0 holds sub-ns
// durations, which cannot occur in practice). 42 buckets reach ~73 minutes,
// far beyond any plausible query latency.
const latencyBucketCount = 42

// histogram is a fixed-size log₂-bucketed latency histogram with lock-free
// updates.
type histogram struct {
	count    atomic.Int64
	sumNanos atomic.Int64
	buckets  [latencyBucketCount]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= latencyBucketCount {
		i = latencyBucketCount - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(ns)
}

func (h *histogram) snapshot() LatencySnapshot {
	s := LatencySnapshot{Count: h.count.Load(), Sum: time.Duration(h.sumNanos.Load())}
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		le := time.Duration(int64(1) << i)
		s.Buckets = append(s.Buckets, LatencyBucket{Le: le, Count: c})
	}
	return s
}

// LatencyBucket is one non-empty histogram bucket: Count observations were
// at most Le (and above half of Le).
type LatencyBucket struct {
	Le    time.Duration
	Count int64
}

// LatencySnapshot is a point-in-time copy of the query-latency histogram.
type LatencySnapshot struct {
	Count   int64
	Sum     time.Duration
	Mean    time.Duration
	Buckets []LatencyBucket // ascending by Le, empty buckets omitted
}

// Histogram is the exported face of the engine's lock-free log₂-bucketed
// latency histogram, for serving layers that want their per-request
// latencies measured and exported exactly like the engine's (the wire
// server's per-request histogram in internal/server). The zero value is
// ready to use; all methods are safe for concurrent use.
type Histogram struct{ h histogram }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.h.observe(d) }

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() LatencySnapshot { return h.h.snapshot() }

// Quantile returns a conservative (upper-bound) estimate of the q-quantile,
// q in [0, 1], from the bucket boundaries. Zero when nothing was observed.
func (s LatencySnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// derivationKinds bounds the per-kind counters; derivation.Kind values are
// the contiguous range Direct..General.
const derivationKinds = int(derivation.General) + 1

// engineMetrics holds the live counters; updates use atomics only, never
// the engine lock.
type engineMetrics struct {
	queries       atomic.Int64
	inserts       atomic.Int64
	batchInserts  atomic.Int64
	batches       atomic.Int64
	reestimations atomic.Int64
	// reestimateGenRetries counts off-lock re-fits dropped because a batch
	// advance bumped the generation counter while the fit ran (the fit is
	// redone on a fresh snapshot).
	reestimateGenRetries atomic.Int64
	queryNanos           atomic.Int64
	maintainNanos        atomic.Int64
	schemeHits           [derivationKinds]atomic.Int64
	latency              histogram

	// Read-fast-path counters: SQL plan cache and forecast memo table.
	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvictions atomic.Int64
	fcHits        atomic.Int64
	fcMisses      atomic.Int64
	fcBypasses    atomic.Int64
	fcEvictions   atomic.Int64
	epochBumps    atomic.Int64

	// Durability counters (durable.go). The wal* values mirror the WAL's
	// own counters after each commit; walReplayed counts batches recovered
	// from the log at open; seg* count columnar compactions and their
	// bytes; snapshotWrites counts crash-safe snapshot files written.
	walAppends     atomic.Int64
	walSyncs       atomic.Int64
	walBytes       atomic.Int64
	walFiles       atomic.Int64
	walReplayed    atomic.Int64
	segCompactions atomic.Int64
	segBytes       atomic.Int64
	snapshotWrites atomic.Int64
}

func (m *engineMetrics) recordQuery(d time.Duration) {
	m.queries.Add(1)
	m.queryNanos.Add(d.Nanoseconds())
	m.latency.observe(d)
}

func (m *engineMetrics) recordSchemeHit(k derivation.Kind) {
	i := int(k)
	if i < 0 || i >= derivationKinds {
		i = int(derivation.General)
	}
	m.schemeHits[i].Add(1)
}

// Metrics is a point-in-time snapshot of the engine's observability
// counters (see DB.Metrics).
type Metrics struct {
	// Queries counts answered node forecasts (a drill-down SQL query
	// answering g groups counts g).
	Queries int64
	// Inserts, Batches and Reestimations mirror the maintenance
	// processor: raw inserts, completed time advances, and model
	// re-fits (lazy or maintenance-triggered). ReestimateGenRetries
	// counts off-lock re-fits discarded because a concurrent batch
	// advance made the fitted snapshot stale (the fit was redone).
	Inserts              int64
	Batches              int64
	Reestimations        int64
	ReestimateGenRetries int64
	// QueryTime and MaintainTime accumulate engine-side wall time.
	QueryTime    time.Duration
	MaintainTime time.Duration
	// SchemeHits counts answered forecasts by derivation kind
	// ("direct", "aggregation", "disaggregation", "general").
	SchemeHits map[string]int64
	// QueryLatency is the log-bucketed per-forecast latency histogram.
	QueryLatency LatencySnapshot

	// BatchInserts counts InsertBatch calls (Inserts counts individual
	// values regardless of the API they arrived through).
	BatchInserts int64

	// Plan-cache counters: SQL statements answered from a cached plan
	// (skipping parse and node resolution), plans parsed and cached, and
	// LRU evictions. PlanCacheSize is the current entry count.
	PlanCacheHits      int64
	PlanCacheMisses    int64
	PlanCacheEvictions int64
	PlanCacheSize      int

	// Forecast-memo counters: forecasts served from the epoch-guarded
	// memo table, recomputations, queries that bypassed the table to take
	// the lazy re-estimation path, evicted entries, and epoch increments
	// performed by maintenance/re-estimation. ForecastCacheSize is the
	// current entry count (live and stale).
	ForecastCacheHits      int64
	ForecastCacheMisses    int64
	ForecastCacheBypasses  int64
	ForecastCacheEvictions int64
	ForecastCacheSize      int
	EpochBumps             int64

	// StripeContention has one element: the number of pending-mutex
	// acquisitions that found the mutex held (writer-writer contention on
	// the insert path). It keeps its slice type and name because the
	// benchmark's f2db.stripe_contention metric (perfbench/layers.go) sums
	// it.
	StripeContention []int64

	// Durability counters (zero on a non-durable engine): WAL record
	// appends, fsyncs and bytes written, live WAL file count, batches
	// replayed from the log at open, columnar segment compactions with
	// their encoded bytes, and crash-safe snapshot writes.
	WALAppends         int64
	WALSyncs           int64
	WALBytes           int64
	WALFiles           int64
	WALReplayedBatches int64
	SegmentCompactions int64
	SegmentBytes       int64
	SnapshotWrites     int64
}

// Metrics returns a lock-free snapshot of the engine counters. Unlike
// Stats it exposes the full observability surface: per-kind derivation
// hits and the query-latency histogram.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		Queries:              db.met.queries.Load(),
		Inserts:              db.met.inserts.Load(),
		BatchInserts:         db.met.batchInserts.Load(),
		Batches:              db.met.batches.Load(),
		Reestimations:        db.met.reestimations.Load(),
		ReestimateGenRetries: db.met.reestimateGenRetries.Load(),
		StripeContention:     []int64{db.pendingContention.Load()},
		QueryTime:            time.Duration(db.met.queryNanos.Load()),
		MaintainTime:         time.Duration(db.met.maintainNanos.Load()),
		SchemeHits:           make(map[string]int64, derivationKinds),
		QueryLatency:         db.met.latency.snapshot(),

		PlanCacheHits:      db.met.planHits.Load(),
		PlanCacheMisses:    db.met.planMisses.Load(),
		PlanCacheEvictions: db.met.planEvictions.Load(),

		ForecastCacheHits:      db.met.fcHits.Load(),
		ForecastCacheMisses:    db.met.fcMisses.Load(),
		ForecastCacheBypasses:  db.met.fcBypasses.Load(),
		ForecastCacheEvictions: db.met.fcEvictions.Load(),
		EpochBumps:             db.met.epochBumps.Load(),

		WALAppends:         db.met.walAppends.Load(),
		WALSyncs:           db.met.walSyncs.Load(),
		WALBytes:           db.met.walBytes.Load(),
		WALFiles:           db.met.walFiles.Load(),
		WALReplayedBatches: db.met.walReplayed.Load(),
		SegmentCompactions: db.met.segCompactions.Load(),
		SegmentBytes:       db.met.segBytes.Load(),
		SnapshotWrites:     db.met.snapshotWrites.Load(),
	}
	if db.plans != nil {
		m.PlanCacheSize = db.plans.len()
	}
	if db.fc != nil {
		m.ForecastCacheSize = db.fc.size()
	}
	for i := 0; i < derivationKinds; i++ {
		if c := db.met.schemeHits[i].Load(); c > 0 {
			m.SchemeHits[derivation.Kind(i).String()] = c
		}
	}
	return m
}

// String renders the metrics in the compact form used by the CLI's \stats
// command.
func (m Metrics) String() string {
	out := fmt.Sprintf("queries=%d inserts=%d batches=%d reestimations=%d gen-retries=%d\n",
		m.Queries, m.Inserts, m.Batches, m.Reestimations, m.ReestimateGenRetries)
	out += fmt.Sprintf("query-time=%v maintenance-time=%v\n", m.QueryTime, m.MaintainTime)
	out += fmt.Sprintf("plan-cache: hits=%d misses=%d evictions=%d size=%d\n",
		m.PlanCacheHits, m.PlanCacheMisses, m.PlanCacheEvictions, m.PlanCacheSize)
	out += fmt.Sprintf("forecast-cache: hits=%d misses=%d bypasses=%d evictions=%d size=%d epoch-bumps=%d\n",
		m.ForecastCacheHits, m.ForecastCacheMisses, m.ForecastCacheBypasses,
		m.ForecastCacheEvictions, m.ForecastCacheSize, m.EpochBumps)
	if m.WALAppends > 0 || m.WALReplayedBatches > 0 || m.SnapshotWrites > 0 {
		out += fmt.Sprintf("wal: appends=%d syncs=%d bytes=%d files=%d replayed=%d\n",
			m.WALAppends, m.WALSyncs, m.WALBytes, m.WALFiles, m.WALReplayedBatches)
		out += fmt.Sprintf("segments: compactions=%d bytes=%d snapshot-writes=%d\n",
			m.SegmentCompactions, m.SegmentBytes, m.SnapshotWrites)
	}
	if len(m.SchemeHits) > 0 {
		out += "scheme-hits:"
		for _, kind := range []string{"direct", "aggregation", "disaggregation", "general"} {
			if c, ok := m.SchemeHits[kind]; ok {
				out += fmt.Sprintf(" %s=%d", kind, c)
			}
		}
		out += "\n"
	}
	if m.QueryLatency.Count > 0 {
		out += fmt.Sprintf("query-latency: mean=%v p50=%v p95=%v p99=%v max<=%v\n",
			m.QueryLatency.Mean,
			m.QueryLatency.Quantile(0.50),
			m.QueryLatency.Quantile(0.95),
			m.QueryLatency.Quantile(0.99),
			m.QueryLatency.Buckets[len(m.QueryLatency.Buckets)-1].Le)
	}
	return out
}
