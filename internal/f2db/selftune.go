package f2db

// Self-tuning attach points (see DESIGN.md §13). The engine does not know
// about the sibyl control plane — it only exposes the three capabilities
// the control loop needs: a telemetry tap on the query path, dynamic cache
// capacities, and an eager pass over the currently invalid models so
// re-estimation can be scheduled into predicted workload troughs.

// QueryTelemetry receives one call per executed query with the statement's
// normalized template text (NormalizeSQL output — the plan-cache key).
// Implementations must be safe for concurrent use and fast: the hook runs
// on the query hot path. internal/sibyl's Engine satisfies it.
type QueryTelemetry interface {
	ObserveTemplate(key string)
}

// teleBox wraps the telemetry interface so the DB can hold it in an
// atomic.Pointer (interfaces are not directly atomically storable).
type teleBox struct{ t QueryTelemetry }

// SetTelemetry attaches (or, with nil, detaches) the workload telemetry
// sink. Safe on a live engine; queries in flight may report to the
// previous sink for one more statement.
func (db *DB) SetTelemetry(t QueryTelemetry) {
	if t == nil {
		db.tele.Store(nil)
		return
	}
	db.tele.Store(&teleBox{t: t})
}

// SetPlanCacheCapacity resizes the SQL plan cache, evicting
// least-recently-used plans when shrinking. It returns the eviction count
// and is a no-op (returning 0) when the cache is disabled.
func (db *DB) SetPlanCacheCapacity(entries int) int {
	if db.plans == nil {
		return 0
	}
	evicted := db.plans.setCapacity(entries)
	db.met.planEvictions.Add(int64(evicted))
	return evicted
}

// SetForecastCacheCapacity resizes the forecast memo table, evicting stale entries first and then live entries
// in deterministic key order. It returns the eviction count and is a
// no-op when memoization is disabled.
func (db *DB) SetForecastCacheCapacity(entries int) int {
	if db.fc == nil {
		return 0
	}
	evicted := db.fc.setCapacity(entries)
	db.met.fcEvictions.Add(evicted)
	return int(evicted)
}

// ReestimateInvalid re-fits every currently invalid model using the
// off-lock worker pool, exactly as the next queries touching them would
// have done lazily — run in a predicted workload trough it moves the fit
// cost off the query path without changing any result. It returns the
// number of models re-estimated.
func (db *DB) ReestimateInvalid() int {
	g := db.rLock()
	ids := db.invalidModelIDs()
	db.unlock(g)
	if len(ids) == 0 {
		return 0
	}
	db.reestimateMany(ids)
	return len(ids)
}
