package f2db

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
)

// Scrape-friendly export of the engine counters (ROADMAP item): the
// Metrics() snapshot rendered in the Prometheus text exposition format
// (version 0.0.4), which expvar-style collectors and Prometheus scrapers
// both ingest. The handler is lock-free like Metrics itself, so scraping at
// any rate never blocks queries or maintenance.

// Collector appends additional Prometheus text-format metric families to
// the engine's /metrics output. Serving layers (the wire server's
// per-connection and per-request counters) register one through
// MountMetrics so their families land on the same endpoint as the engine's.
type Collector func(w io.Writer)

// MetricsHandler returns an http.Handler serving the engine metrics in
// Prometheus text format, followed by any extra collectors' families.
func (db *DB) MetricsHandler(extra ...Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, db)
		for _, c := range extra {
			c(w)
		}
	})
}

// MountMetrics mounts the Prometheus endpoint on mux under /metrics. It is
// the single handler-mounting helper every serving binary uses — f2dbcli's
// -metrics flag and the f2dbd daemon both — so the observability surface
// cannot drift between them.
func MountMetrics(mux *http.ServeMux, db *DB, extra ...Collector) {
	mux.Handle("/metrics", db.MetricsHandler(extra...))
}

// MountPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on mux — the same mux MountMetrics uses, so scale runs
// can be profiled in place through the metrics listener (-pprof in f2dbd
// and f2dbcli). The handlers are read-only; CPU and trace profiles cost
// their sampling overhead only while a profile request is in flight.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// MountCollectors mounts a /metrics endpoint serving only the given
// collectors' families — for processes that serve without an engine, like
// the cluster coordinator (its shards hold the engines and their metrics).
func MountCollectors(mux *http.ServeMux, cs ...Collector) {
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, c := range cs {
			c(w)
		}
	}))
}

func writePrometheus(w io.Writer, db *DB) {
	m := db.Metrics()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("f2db_queries_total", "Answered node forecasts.", m.Queries)
	counter("f2db_inserts_total", "Base series values inserted.", m.Inserts)
	counter("f2db_insert_batches_total", "InsertBatch calls.", m.BatchInserts)
	counter("f2db_maintenance_batches_total", "Completed time advances.", m.Batches)
	counter("f2db_reestimations_total", "Model parameter re-estimations.", m.Reestimations)
	counter("f2db_reestimate_gen_retries_total", "Off-lock re-fits redone after a generation conflict.", m.ReestimateGenRetries)
	seconds := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	seconds("f2db_query_seconds_total", "Engine-side wall time answering queries.", m.QueryTime.Seconds())
	seconds("f2db_maintain_seconds_total", "Engine-side wall time on insert maintenance.", m.MaintainTime.Seconds())

	// Per-derivation-kind forecast counts as one labeled metric family.
	if len(m.SchemeHits) > 0 {
		fmt.Fprintf(w, "# HELP f2db_scheme_hits_total Answered forecasts by derivation kind.\n")
		fmt.Fprintf(w, "# TYPE f2db_scheme_hits_total counter\n")
		kinds := make([]string, 0, len(m.SchemeHits))
		for k := range m.SchemeHits {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "f2db_scheme_hits_total{kind=%q} %d\n", k, m.SchemeHits[k])
		}
	}

	counter("f2db_plan_cache_hits_total", "SQL statements answered from a cached plan.", m.PlanCacheHits)
	counter("f2db_plan_cache_misses_total", "SQL statements parsed and planned.", m.PlanCacheMisses)
	counter("f2db_plan_cache_evictions_total", "Plans evicted from the LRU.", m.PlanCacheEvictions)
	gauge("f2db_plan_cache_entries", "Plans currently cached.", int64(m.PlanCacheSize))

	counter("f2db_forecast_cache_hits_total", "Forecasts served from the memo table.", m.ForecastCacheHits)
	counter("f2db_forecast_cache_misses_total", "Forecasts recomputed and memoized.", m.ForecastCacheMisses)
	counter("f2db_forecast_cache_bypasses_total", "Queries that took the lazy re-estimation path.", m.ForecastCacheBypasses)
	counter("f2db_forecast_cache_evictions_total", "Memo entries evicted.", m.ForecastCacheEvictions)
	gauge("f2db_forecast_cache_entries", "Memo entries currently held.", int64(m.ForecastCacheSize))
	counter("f2db_epoch_bumps_total", "Node epoch increments by maintenance and re-estimation.", m.EpochBumps)

	counter("f2db_wal_appends_total", "Batches appended to the write-ahead log.", m.WALAppends)
	counter("f2db_wal_syncs_total", "WAL fsyncs issued.", m.WALSyncs)
	counter("f2db_wal_bytes_total", "Bytes appended to the write-ahead log.", m.WALBytes)
	gauge("f2db_wal_files", "WAL files currently on disk.", m.WALFiles)
	counter("f2db_wal_replayed_batches_total", "Batches replayed from the WAL at open.", m.WALReplayedBatches)
	counter("f2db_segment_compactions_total", "WAL spans compacted into columnar segments.", m.SegmentCompactions)
	counter("f2db_segment_bytes_total", "Columnar segment bytes written.", m.SegmentBytes)
	counter("f2db_snapshot_writes_total", "Crash-safe snapshot files written.", m.SnapshotWrites)

	gauge("f2db_pending_inserts", "Values in the current incomplete batch.", int64(db.Stats().PendingInserts))
	gauge("f2db_invalid_models", "Models awaiting re-estimation.", int64(db.InvalidCount()))

	counter("f2db_pending_lock_contention_total", "Contended acquisitions of the pending-batch mutex.", db.pendingContention.Load())

	// Query latency as a cumulative Prometheus histogram.
	WritePromHistogram(w, "f2db_query_latency_seconds", "Per-forecast latency.", m.QueryLatency)
}

// WritePromHistogram renders a LatencySnapshot as a cumulative Prometheus
// histogram family. The engine's buckets are log2 upper bounds in
// nanoseconds; le labels are seconds. Serving-layer Collectors use it so
// their histograms export in exactly the engine's format.
func WritePromHistogram(w io.Writer, name, help string, s LatencySnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", b.Le.Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum.Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
