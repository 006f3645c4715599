package coord

import (
	"fmt"
	"io"
	"sync/atomic"

	"cubefc/internal/f2db"
)

// Metrics holds the coordinator's live counters. All fields update with
// atomics only, so scraping never contends with routing. Families render
// in the engine's Prometheus text format through Collector, mounted on
// /metrics by the -coordinator daemon via f2db.MountCollectors.
type Metrics struct {
	// Statement mix at the coordinator surface.
	Queries atomic.Int64
	Execs   atomic.Int64

	// Scatter-gather shape: drill-down statements fanned out, total
	// sub-queries issued, and a log₂ width histogram (fanWidth[i] counts
	// fan-outs of width in (2^(i-1), 2^i]).
	Fanouts          atomic.Int64
	FanoutSubqueries atomic.Int64
	fanWidth         [16]atomic.Int64

	// Failovers counts queries answered by a non-owner shard.
	Failovers atomic.Int64

	// Read fast path (cache.go): statements answered from the result
	// cache without touching a shard, fan-outs actually performed on a
	// miss, concurrent identical statements coalesced onto an in-flight
	// fan-out, LRU evictions, entries discarded because a write bumped
	// the epoch since their fill, and statements whose routing came from
	// the memo instead of a re-parse.
	CacheHits          atomic.Int64
	CacheMisses        atomic.Int64
	CacheCoalesced     atomic.Int64
	CacheEvictions     atomic.Int64
	CacheInvalidations atomic.Int64
	RouteMemoHits      atomic.Int64

	// Write-epoch attribution: Execs that bumped only their partition's
	// epoch versus those that bumped the global epoch (multi-partition
	// statements and conservative batch-advance detections).
	EpochPartBumps   atomic.Int64
	EpochGlobalBumps atomic.Int64

	// LogTrimmed counts statement-log entries dropped after every
	// participating shard applied them (the bounded-log maintenance).
	LogTrimmed atomic.Int64

	// Live shard-state gauges.
	ShardsDown atomic.Int64
	ShardsDead atomic.Int64

	// Shards holds the per-shard counters, indexed like the shard list.
	Shards []ShardMetrics
}

// ShardMetrics counts one shard's traffic as seen from the coordinator.
type ShardMetrics struct {
	Addr     string
	Requests atomic.Int64
	Errors   atomic.Int64
	// Replays counts restart recoveries that rewound the replay cursor;
	// ReplayRejects counts re-sent statements the engine rejected as
	// duplicates of an apply that an ambiguous failure had obscured.
	Replays       atomic.Int64
	ReplayRejects atomic.Int64
	Latency       f2db.Histogram
}

func newMetrics(addrs []string) *Metrics {
	m := &Metrics{Shards: make([]ShardMetrics, len(addrs))}
	for i, a := range addrs {
		m.Shards[i].Addr = a
	}
	return m
}

func (m *Metrics) noteFanWidth(n int) {
	i := 0
	for v := n - 1; v > 0; v >>= 1 {
		i++
	}
	if i >= len(m.fanWidth) {
		i = len(m.fanWidth) - 1
	}
	m.fanWidth[i].Add(1)
}

// Collector returns a Prometheus text-format renderer of the coordinator
// families, in the same Collector shape the wire server's metrics use so
// both mount on one endpoint.
func (m *Metrics) Collector() f2db.Collector {
	return func(w io.Writer) {
		counter := func(name, help string, v int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		}
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		counter("coord_queries_total", "SELECT statements routed.", m.Queries.Load())
		counter("coord_execs_total", "INSERT statements logged and broadcast.", m.Execs.Load())
		counter("coord_fanouts_total", "Drill-down statements scattered.", m.Fanouts.Load())
		counter("coord_fanout_subqueries_total", "Sub-queries issued by scatter-gather.", m.FanoutSubqueries.Load())
		counter("coord_failovers_total", "Queries answered by a non-owner shard.", m.Failovers.Load())
		counter("coord_cache_hits_total", "Statements served from the result cache (no shard fan-out).", m.CacheHits.Load())
		counter("coord_cache_misses_total", "Result-cache misses that fanned out to the shards.", m.CacheMisses.Load())
		counter("coord_cache_coalesced_total", "Statements coalesced onto an in-flight identical fan-out.", m.CacheCoalesced.Load())
		counter("coord_cache_evictions_total", "Result-cache LRU evictions.", m.CacheEvictions.Load())
		counter("coord_cache_invalidations_total", "Cached results discarded because a write bumped the epoch.", m.CacheInvalidations.Load())
		counter("coord_route_memo_hits_total", "Statements routed from the memo without re-parsing.", m.RouteMemoHits.Load())
		counter("coord_epoch_part_bumps_total", "Execs that bumped only their write partition's epoch.", m.EpochPartBumps.Load())
		counter("coord_epoch_global_bumps_total", "Execs that bumped the global write epoch.", m.EpochGlobalBumps.Load())
		counter("coord_log_trimmed_total", "Statement-log entries trimmed after cluster-wide apply.", m.LogTrimmed.Load())
		gauge("coord_shards_down", "Shards currently down (reconnecting).", m.ShardsDown.Load())
		gauge("coord_shards_dead", "Shards abandoned after unalignable restarts.", m.ShardsDead.Load())

		fmt.Fprintf(w, "# HELP coord_fanout_width Fan-outs by log2 width bucket.\n# TYPE coord_fanout_width counter\n")
		for i := range m.fanWidth {
			if v := m.fanWidth[i].Load(); v > 0 {
				fmt.Fprintf(w, "coord_fanout_width{le=\"%d\"} %d\n", 1<<i, v)
			}
		}

		perShard := func(name, help string, load func(*ShardMetrics) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for i := range m.Shards {
				fmt.Fprintf(w, "%s{shard=\"%d\",addr=%q} %d\n", name, i, m.Shards[i].Addr, load(&m.Shards[i]))
			}
		}
		perShard("coord_shard_requests_total", "Requests sent per shard.",
			func(s *ShardMetrics) int64 { return s.Requests.Load() })
		perShard("coord_shard_errors_total", "Transport failures per shard.",
			func(s *ShardMetrics) int64 { return s.Errors.Load() })
		perShard("coord_shard_replays_total", "Restart recoveries that rewound the replay cursor.",
			func(s *ShardMetrics) int64 { return s.Replays.Load() })
		perShard("coord_shard_replay_rejects_total", "Re-sent statements rejected as already applied.",
			func(s *ShardMetrics) int64 { return s.ReplayRejects.Load() })

		for i := range m.Shards {
			f2db.WritePromHistogram(w,
				fmt.Sprintf("coord_shard%d_latency_seconds", i),
				fmt.Sprintf("Request latency to shard %d (%s).", i, m.Shards[i].Addr),
				m.Shards[i].Latency.Snapshot())
		}
	}
}
