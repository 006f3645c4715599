package main

import (
	"cubefc/internal/coord"
	"cubefc/internal/f2db"
)

// coordCounters is a plain copy of the coordinator counters the per-layer
// metrics difference over a phase.
type coordCounters struct {
	hits, misses, coalesced, invalidations, routeMemo int64
	fanoutSub, partBumps, globalBumps                 int64
}

func snapshotCoord(co *coord.Coordinator) coordCounters {
	m := co.Metrics()
	return coordCounters{
		hits:          m.CacheHits.Load(),
		misses:        m.CacheMisses.Load(),
		coalesced:     m.CacheCoalesced.Load(),
		invalidations: m.CacheInvalidations.Load(),
		routeMemo:     m.RouteMemoHits.Load(),
		fanoutSub:     m.FanoutSubqueries.Load(),
		partBumps:     m.EpochPartBumps.Load(),
		globalBumps:   m.EpochGlobalBumps.Load(),
	}
}

func setCoordMetrics(res *result, a, b coordCounters) {
	hits, misses := float64(b.hits-a.hits), float64(b.misses-a.misses)
	res.set("coord.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("coord.coalesced", float64(b.coalesced-a.coalesced))
	res.set("coord.invalidations", float64(b.invalidations-a.invalidations))
	res.set("coord.route_memo_hits", float64(b.routeMemo-a.routeMemo))
	res.set("coord.fanout_subqueries", float64(b.fanoutSub-a.fanoutSub))
	res.set("coord.epoch_part_bumps", float64(b.partBumps-a.partBumps))
	res.set("coord.epoch_global_bumps", float64(b.globalBumps-a.globalBumps))
}

// addEngineMetrics adds the counters the per-layer metrics use from m
// into sum (several shard engines report as one layer).
func addEngineMetrics(sum *f2db.Metrics, m f2db.Metrics) {
	sum.PlanCacheHits += m.PlanCacheHits
	sum.PlanCacheMisses += m.PlanCacheMisses
	sum.ForecastCacheHits += m.ForecastCacheHits
	sum.ForecastCacheMisses += m.ForecastCacheMisses
	sum.ForecastCacheBypasses += m.ForecastCacheBypasses
	sum.Reestimations += m.Reestimations
	sum.ReestimateGenRetries += m.ReestimateGenRetries
	sum.MaintainTime += m.MaintainTime
	sum.Batches += m.Batches
	sum.StripeContention = append(sum.StripeContention, m.StripeContention...)
}

func contention(m f2db.Metrics) int64 {
	var n int64
	for _, c := range m.StripeContention {
		n += c
	}
	return n
}

// setEngineMetrics reports the engine counters accumulated between two
// snapshots.
func setEngineMetrics(res *result, a, b f2db.Metrics) {
	ph, pm := float64(b.PlanCacheHits-a.PlanCacheHits), float64(b.PlanCacheMisses-a.PlanCacheMisses)
	res.set("f2db.plan_hit_ratio", ratio(ph, ph+pm))
	mh, mm := float64(b.ForecastCacheHits-a.ForecastCacheHits), float64(b.ForecastCacheMisses-a.ForecastCacheMisses)
	res.set("f2db.memo_hit_ratio", ratio(mh, mh+mm))
	res.set("f2db.memo_bypasses", float64(b.ForecastCacheBypasses-a.ForecastCacheBypasses))
	res.set("f2db.reestimations", float64(b.Reestimations-a.Reestimations))
	res.set("f2db.gen_retries", float64(b.ReestimateGenRetries-a.ReestimateGenRetries))
	res.set("f2db.maintain_s", (b.MaintainTime - a.MaintainTime).Seconds())
	res.set("f2db.batches", float64(b.Batches-a.Batches))
	res.set("f2db.stripe_contention", float64(contention(b)-contention(a)))
}

// checkAdvice counts one advisor run as an operation and fails the run
// when its configuration breaks the invariants Configuration.Validate
// checks.
func checkAdvice(res *result, run *adviseRun) {
	res.attempted++
	if err := run.cfg.Validate(); err != nil {
		res.failed++
		res.fail("advised configuration: Configuration.Validate: %v", err)
	}
}

// setAdvisorMetrics reports one advisor run's counters and phase times,
// the configuration's test-split error and its orphan models.
func setAdvisorMetrics(res *result, run *adviseRun) {
	m := run.metrics
	res.set("core.iterations", float64(m.Iterations))
	res.set("core.candidates", float64(m.Candidates))
	res.set("core.models_built", float64(m.ModelsBuilt))
	res.set("core.accept_ratio", ratio(float64(m.Accepted), float64(m.ModelsBuilt)))
	res.set("core.models_final", float64(run.cfg.NumModels()))
	res.set("core.orphan_models", float64(orphanModels(run.cfg)))
	res.set("core.selection_s", m.SelectionTime.Seconds())
	res.set("core.eval_s", m.EvalTime.Seconds())
	res.set("core.control_s", m.ControlTime.Seconds())
	res.set("core.step_p50_ms", median(run.steps))
	res.set("forecast_smape", run.cfg.Error())
}
