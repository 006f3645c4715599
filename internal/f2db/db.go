// Package f2db is an embedded reimplementation of the paper's F²DB
// (flash-forward database) prototype, Section V: it stores a model
// configuration in relational-style system tables, processes forecast
// queries against it ("SELECT … AS OF now() + '1 day'") without touching
// base data, and maintains the models incrementally as new time-series
// values are inserted. Where the original extends PostgreSQL, this engine
// is self-contained and stdlib-only; the component structure of Figure 6
// (configuration storage, forecast query processor, maintenance processor)
// is preserved.
//
// Concurrency model: the engine distinguishes readers from maintenance.
// Forecast queries (Query, ForecastNode, Health, Stats, Explain) take
// shared read access and run concurrently on all cores. Inserts fill one
// pending batch behind its own mutex, so they never wait for readers; the
// exclusive engine lock is reserved for the batch time advance (model
// state updates, derivation-weight updates, invalidation) and model
// re-estimation. The one crossing point between readers and writers is
// lazy re-estimation (Section V delays parameter re-estimation until a
// query references the model): a query that hits an invalidated model
// retries once holding the write lock. Lock ownership is witnessed by a
// guard value produced only by the acquire helpers, so exclusive-only
// paths assert their lock instead of trusting a convention. Engine
// counters are atomics (see metrics.go), so observing the engine never
// takes the engine lock.
package f2db

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/derivation"
	"cubefc/internal/forecast"
	"cubefc/internal/optimize"
)

// InvalidationStrategy decides when a model's parameters must be
// re-estimated during maintenance (Section V: "based on a time- or
// threshold-based strategy").
type InvalidationStrategy interface {
	// Invalidate reports whether the model at the node needs parameter
	// re-estimation given its maintenance statistics.
	Invalidate(stats ModelStats) bool
}

// ModelStats carries per-model maintenance statistics for invalidation
// decisions.
type ModelStats struct {
	// UpdatesSinceFit counts state updates since the last (re-)fit.
	UpdatesSinceFit int
	// RollingError is an exponentially smoothed one-step-ahead SMAPE of
	// the model observed during maintenance.
	RollingError float64
}

// TimeBased invalidates a model after every N state updates.
type TimeBased struct{ Every int }

// Invalidate implements InvalidationStrategy.
func (t TimeBased) Invalidate(s ModelStats) bool {
	return t.Every > 0 && s.UpdatesSinceFit >= t.Every
}

// ThresholdBased invalidates a model once its rolling one-step error
// exceeds MaxError.
type ThresholdBased struct{ MaxError float64 }

// Invalidate implements InvalidationStrategy.
func (t ThresholdBased) Invalidate(s ModelStats) bool {
	return t.MaxError > 0 && s.RollingError > t.MaxError
}

// Never keeps models valid forever (state updates only).
type Never struct{}

// Invalidate implements InvalidationStrategy.
func (Never) Invalidate(ModelStats) bool { return false }

// Stats aggregates engine counters. It is kept for compatibility with the
// workload/experiment harnesses; Metrics exposes the richer surface
// (per-kind scheme hits, latency histogram).
type Stats struct {
	Queries        int
	Inserts        int
	Batches        int // completed maintenance batches (time advances)
	Reestimations  int
	QueryTime      time.Duration
	MaintainTime   time.Duration
	PendingInserts int
}

// schemeState tracks the running history sums behind a derivation weight so
// the weight can be maintained incrementally (Section V).
type schemeState struct {
	hTarget  float64
	hSources float64
}

// DB is the embedded F²DB engine.
type DB struct {
	// mu separates shared readers (forecast queries, health and stats
	// snapshots) from exclusive writers (batch time advance, lazy
	// re-estimation, snapshot restore). Acquire it through rLock/wLock so
	// lock ownership is witnessed by a guard (see below).
	mu sync.RWMutex
	// writeHeld is set while some goroutine holds mu exclusively; it backs
	// assertExclusive, the runtime check that write-only paths really run
	// under the write lock.
	writeHeld atomic.Bool

	graph *cube.Graph
	cfg   *core.Configuration

	// StepDuration is the real-time span of one series step, used to
	// translate "AS OF now() + '1 day'" into a forecast horizon.
	stepDuration time.Duration

	strategy InvalidationStrategy
	invalid  map[int]bool
	mstats   map[int]*ModelStats
	schemes  map[int]*schemeState

	// pending is the insert batch being filled, guarded by pmu (acquire it
	// through lockPending, which counts contended acquisitions in
	// pendingContention). Time advances only once every base series has a
	// value for the next time stamp, i.e. when len(pending) reaches
	// len(graph.BaseIDs). Lock order: mu before pmu, never the reverse.
	pmu               sync.Mutex
	pending           map[int]float64
	pendingContention atomic.Int64

	// baseCounts holds the number of base series per node (AVG queries),
	// precomputed at Open so the read path never mutates shared state.
	baseCounts []int

	// plans is the LRU of parsed-and-resolved SQL plans (nil when
	// disabled); fc is the epoch-guarded forecast memo table (nil when
	// disabled). See plancache.go / fccache.go.
	plans *planCache
	fc    *fcCache
	// deps lists, per model node, the targets whose derivation scheme
	// reads that model (excluding the node itself): re-estimating the
	// model invalidates exactly these nodes' memoized forecasts.
	deps map[int][]int

	// parallelism bounds the off-lock re-estimation worker pool; eager
	// selects re-fitting right after the invalidating advance, coldRefit
	// suppresses warm-started fits. See Options.
	parallelism int
	eager       bool
	coldRefit   bool

	met engineMetrics

	// tele, when non-nil, is the workload telemetry sink (selftune.go):
	// Query reports each statement's normalized template to it. An atomic
	// pointer so the hook costs one load on the hot path when disabled and
	// can be attached/detached on a live engine.
	tele atomic.Pointer[teleBox]

	// commitHook, when non-nil, is the group-commit gate: advanceIfComplete
	// calls it under the write lock and the pending mutex with the complete
	// batch and the generation it creates (the observation index it will
	// occupy), BEFORE the pending buffer is cleared and the batch applied.
	// The durability layer (durable.go) installs the WAL append here; an
	// error refuses the advance with every value still pending, so the
	// engine stays consistent and a later insert retries the commit.
	// Installed once before any concurrency (OpenDurable) — never mutated on
	// a live engine.
	commitHook func(gen uint64, batch map[int]float64) error

	// testHookBeforeInstall, when non-nil, runs in reestimateNode after the
	// off-lock fit but before the install lock is taken — the window in
	// which a batch advance makes the fitted clone stale. Tests use it to
	// force a generation conflict deterministically; always nil in
	// production.
	testHookBeforeInstall func()
}

// Options configures Open.
type Options struct {
	// StepDuration translates query horizons; default 24h (daily data).
	StepDuration time.Duration
	// Strategy is the model invalidation strategy; default Never.
	Strategy InvalidationStrategy
	// PlanCacheSize bounds the LRU of parsed-and-resolved SQL query plans.
	// 0 selects the default (256); a negative value disables plan caching.
	PlanCacheSize int
	// ForecastCacheSize bounds the epoch-invalidated forecast memo table.
	// 0 selects the default (4096); a negative value disables memoization.
	ForecastCacheSize int
	// Parallelism bounds the worker pool that re-fits invalidated models
	// off the exclusive lock (eager maintenance and lazy query pre-fits).
	// 0 picks GOMAXPROCS.
	Parallelism int
	// EagerReestimate re-fits models right after the batch advance that
	// invalidated them instead of waiting for a query to reference them
	// (the lazy default, Section V). The fits run off the exclusive lock
	// on the worker pool, so queries and inserts proceed concurrently.
	EagerReestimate bool
	// ColdRefit disables warm-started re-estimation: every re-fit runs the
	// full cold parameter search instead of seeding the optimizer from the
	// model's previous parameters. Kept for baseline benchmarks.
	ColdRefit bool
}

// Default cache capacities applied by Open when the option is zero.
const (
	defaultPlanCacheSize     = 256
	defaultForecastCacheSize = 4096
)

// Open creates an engine over the graph and loads the model configuration
// produced by the advisor (or one of the baselines).
func Open(g *cube.Graph, cfg *core.Configuration, opts Options) (*DB, error) {
	if cfg.Graph != g {
		return nil, fmt.Errorf("f2db: configuration belongs to a different graph")
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = 24 * time.Hour
	}
	if opts.Strategy == nil {
		opts.Strategy = Never{}
	}
	db := &DB{
		graph:        g,
		cfg:          cfg,
		stepDuration: opts.StepDuration,
		strategy:     opts.Strategy,
		invalid:      make(map[int]bool),
		mstats:       make(map[int]*ModelStats),
		schemes:      make(map[int]*schemeState),
		pending:      make(map[int]float64, len(g.BaseIDs)),
		parallelism:  opts.Parallelism,
		eager:        opts.EagerReestimate,
		coldRefit:    opts.ColdRefit,
	}
	if db.parallelism <= 0 {
		db.parallelism = runtime.GOMAXPROCS(0)
	}
	for id := range cfg.Models {
		db.mstats[id] = &ModelStats{}
	}
	// Initialize incremental weight states from the full history.
	for id, sc := range cfg.Schemes {
		st := &schemeState{}
		st.hTarget = g.Node(id).Series.Sum()
		for _, s := range sc.Sources {
			st.hSources += g.Node(s).Series.Sum()
		}
		db.schemes[id] = st
	}
	// Precompute per-node base-series counts (AVG scaling). This also
	// warms the graph's cover-closure cache before any concurrency, so
	// maintenance batches never write to it while queries run.
	incidence := g.BaseIncidence()
	db.baseCounts = make([]int, len(incidence))
	for id, bases := range incidence {
		c := len(bases)
		if c == 0 {
			c = 1
		}
		db.baseCounts[id] = c
	}
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = defaultPlanCacheSize
		}
		db.plans = newPlanCache(size)
	}
	if opts.ForecastCacheSize >= 0 {
		size := opts.ForecastCacheSize
		if size == 0 {
			size = defaultForecastCacheSize
		}
		db.fc = newFcCache(g.NumNodes(), size)
		// Invert the scheme table: deps[s] = targets deriving from model
		// s, so a re-estimation of s invalidates exactly those epochs.
		db.deps = make(map[int][]int, len(cfg.Models))
		for t, sc := range cfg.Schemes {
			for _, s := range sc.Sources {
				if s != t {
					db.deps[s] = append(db.deps[s], t)
				}
			}
		}
	}
	return db, nil
}

// Stats returns a snapshot of the engine counters. The counters are
// atomics; only the pending count briefly takes the pending mutex.
func (db *DB) Stats() Stats {
	db.pmu.Lock()
	pending := len(db.pending)
	db.pmu.Unlock()
	return Stats{
		Queries:        int(db.met.queries.Load()),
		Inserts:        int(db.met.inserts.Load()),
		Batches:        int(db.met.batches.Load()),
		Reestimations:  int(db.met.reestimations.Load()),
		QueryTime:      time.Duration(db.met.queryNanos.Load()),
		MaintainTime:   time.Duration(db.met.maintainNanos.Load()),
		PendingInserts: pending,
	}
}

// errNeedsReestimate signals that a forecast under shared (read) access hit
// a model awaiting re-estimation; the caller retries once holding the
// write lock. It never escapes the package API.
var errNeedsReestimate = errors.New("f2db: model awaits re-estimation")

// guard witnesses ownership of the engine lock. It can only be produced by
// rLock/wLock, so a function taking a guard provably runs under the lock,
// and one requiring exclusivity can assert it instead of trusting a bool
// threaded by convention — a refactor must not be able to double-lock or
// race silently.
type guard struct{ exclusive bool }

// rLock takes the shared engine lock and returns its witness.
func (db *DB) rLock() guard {
	db.mu.RLock()
	return guard{}
}

// wLock takes the exclusive engine lock and returns its witness.
func (db *DB) wLock() guard {
	db.mu.Lock()
	db.writeHeld.Store(true)
	return guard{exclusive: true}
}

// unlock releases the lock a guard witnesses.
func (db *DB) unlock(g guard) {
	if g.exclusive {
		db.writeHeld.Store(false)
		db.mu.Unlock()
		return
	}
	db.mu.RUnlock()
}

// assertExclusive panics unless the guard witnesses the write lock and the
// write lock is actually held. Write-only paths (reestimate, advanceBatch)
// call it so a future refactor that drops the lock fails loudly instead of
// racing.
func (db *DB) assertExclusive(g guard) {
	if !g.exclusive || !db.writeHeld.Load() {
		panic("f2db: internal error: write path entered without the exclusive engine lock")
	}
}

// ForecastNode answers a forecast for the node over horizon h steps using
// the stored scheme and live model states, re-estimating invalid models
// lazily (Section V: "we reduce maintenance overhead by delaying parameter
// reestimation until the model is actually referenced by a query"). The
// common path runs under the shared read lock; only a query that actually
// needs a re-estimation upgrades to the write lock.
func (db *DB) ForecastNode(nodeID, h int) ([]float64, error) {
	g := db.rLock()
	fc, _, _, err := db.forecastIntervalLocked(g, nodeID, h, 0)
	db.unlock(g)
	if err != errNeedsReestimate {
		return fc, err
	}
	// Lazy re-estimation: re-fit the invalidated source models off the
	// exclusive lock first, so the retry below holds the write lock only
	// for derivation. If a concurrent advance invalidated the models again
	// the retry re-fits them under the lock — the fallback that guarantees
	// progress.
	db.reestimateMany(db.invalidSources([]int{nodeID}))
	g = db.wLock()
	defer db.unlock(g)
	fc, _, _, err = db.forecastIntervalLocked(g, nodeID, h, 0)
	return fc, err
}

// forecastIntervalLocked answers a node forecast (with interval bounds when
// conf > 0) through the memo table: a hit returns the cached slices without
// touching any model; a miss derives the forecast and memoizes it under the
// node's current epoch. Metrics (query count, latency, scheme hits, cache
// counters) are recorded here so hits and misses are accounted uniformly.
// The guard witnesses the engine lock; only an exclusive guard may
// re-estimate invalidated source models — under a shared guard the call
// reports errNeedsReestimate instead, which is metered as a cache bypass
// (the query bypasses the memo table to take the lazy re-estimation path),
// not a miss.
func (db *DB) forecastIntervalLocked(g guard, nodeID, h int, conf float64) (point, lo, hi []float64, err error) {
	start := time.Now()
	defer func() {
		if err == errNeedsReestimate {
			return // retried under the write lock; that attempt is counted
		}
		db.met.recordQuery(time.Since(start))
		if err == nil {
			if sc, ok := db.cfg.Schemes[nodeID]; ok {
				db.met.recordSchemeHit(sc.Kind)
			}
		}
	}()
	key := fcKey{node: nodeID, h: h, conf: conf}
	if db.fc != nil {
		if p, l, u, ok := db.fc.get(key); ok {
			db.met.fcHits.Add(1)
			return p, l, u, nil
		}
	}
	point, lo, hi, err = db.deriveInterval(g, nodeID, h, conf)
	if err == errNeedsReestimate {
		if db.fc != nil {
			db.met.fcBypasses.Add(1)
		}
		return nil, nil, nil, err
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if db.fc != nil {
		if !g.exclusive {
			// The exclusive retry continues a bypass already metered
			// above; only genuine shared-path recomputations count as
			// misses.
			db.met.fcMisses.Add(1)
		}
		if ev := db.fc.put(key, point, lo, hi); ev > 0 {
			db.met.fcEvictions.Add(ev)
		}
	}
	return point, lo, hi, nil
}

// deriveForecast derives the node forecast from live model state. Locking
// contract as forecastIntervalLocked; no metrics, no memoization.
func (db *DB) deriveForecast(g guard, nodeID, h int) (fc []float64, err error) {
	sc, ok := db.cfg.Schemes[nodeID]
	if !ok {
		// A sampled advisor run leaves uncovered nodes scheme-less;
		// resolving one mutates the configuration, so it needs the write
		// lock — under shared access take the exclusive-retry path.
		if !g.exclusive {
			return nil, errNeedsReestimate
		}
		var err error
		sc, err = db.cfg.ResolveScheme(nodeID)
		if err != nil {
			return nil, fmt.Errorf("f2db: node %d: %w", nodeID, err)
		}
	}
	fcs := make([][]float64, len(sc.Sources))
	for i, s := range sc.Sources {
		m, ok := db.cfg.Models[s]
		if !ok {
			return nil, fmt.Errorf("f2db: scheme source %d has no model", s)
		}
		if db.invalid[s] {
			if !g.exclusive {
				return nil, errNeedsReestimate
			}
			if err := db.reestimate(g, s, m); err != nil {
				return nil, err
			}
		}
		fcs[i] = m.Forecast(h)
	}
	// Use the incrementally maintained weight.
	liveSc := sc
	if st, ok := db.schemes[nodeID]; ok && st.hSources != 0 && sc.Kind != derivation.Direct {
		liveSc.K = st.hTarget / st.hSources
	}
	return liveSc.Apply(fcs)
}

// deriveInterval returns the point forecast of a node and, when conf > 0
// (a percentage, e.g. 95), lower/upper prediction-interval bounds. Locking
// contract as forecastIntervalLocked; no metrics, no memoization. The
// interval assumes independent, normally distributed residuals at the
// scheme's sources; each source contributes its one-step residual variance
// grown by its model's horizon profile (ψ weights for ARIMA, class-1
// state-space formulas for exponential smoothing):
//
//	spread(step) = z · |k| · sqrt( Σ_s σ_s² · scale_s(step)² )
func (db *DB) deriveInterval(g guard, nodeID, h int, conf float64) (point, lo, hi []float64, err error) {
	point, err = db.deriveForecast(g, nodeID, h)
	if err != nil || conf <= 0 {
		return point, nil, nil, err
	}
	sc, ok := db.cfg.Schemes[nodeID]
	if !ok {
		return nil, nil, nil, fmt.Errorf("f2db: node %d has no derivation scheme", nodeID)
	}
	k := sc.K
	if st, ok := db.schemes[nodeID]; ok && st.hSources != 0 && sc.Kind != derivation.Direct {
		k = st.hTarget / st.hSources
	}
	z := optimize.InvNormCDF(0.5 + conf/200)
	lo = make([]float64, h)
	hi = make([]float64, h)
	for i := range point {
		var variance float64
		for _, s := range sc.Sources {
			m := db.cfg.Models[s]
			if u, ok := m.(forecast.Uncertainty); ok {
				std := u.ResidualStd() * forecast.VarianceScaleOf(m, i+1)
				variance += std * std
			}
		}
		spread := z * math.Abs(k) * math.Sqrt(variance)
		lo[i] = point[i] - spread
		hi[i] = point[i] + spread
	}
	return point, lo, hi, nil
}

// reestimate re-fits a model's parameters on the node's full current
// history while holding the write lock. It is the fallback of the off-lock
// protocol (reestimateNode): lazy queries whose off-lock pre-fit lost a
// generation race land here, where no advance can interleave. The guard
// must witness the write lock.
func (db *DB) reestimate(g guard, id int, m forecast.Model) error {
	db.assertExclusive(g)
	if !db.coldRefit {
		if ws, ok := m.(forecast.WarmStarter); ok {
			ws.WarmStart(ws.Params())
		}
	}
	if err := m.Fit(db.graph.Node(id).Series); err != nil {
		return fmt.Errorf("f2db: re-estimating node %d: %w", id, err)
	}
	db.installModel(g, id, m)
	return nil
}

// installModel publishes a freshly fitted model: stores it, clears the
// invalid flag, resets the maintenance statistics and bumps the epoch of
// the model node and of every node whose derivation scheme reads the model,
// invalidating their memoized forecasts. The guard must witness the write
// lock.
func (db *DB) installModel(g guard, id int, m forecast.Model) {
	db.assertExclusive(g)
	db.cfg.Models[id] = m
	db.invalid[id] = false
	st := db.mstats[id]
	st.UpdatesSinceFit = 0
	st.RollingError = 0
	db.met.reestimations.Add(1)
	if db.fc != nil {
		bumped := db.fc.bump(id)
		for _, t := range db.deps[id] {
			bumped += db.fc.bump(t)
		}
		db.met.epochBumps.Add(bumped)
	}
}

// Insert adds one new measure value for the base series identified by its
// finest-level member values. Inserts are batched; once every base series
// has received a value for the next time stamp, time advances in the whole
// graph and all models and derivation weights are updated incrementally
// (Section V).
func (db *DB) Insert(members []string, value float64) error {
	id, err := db.resolveBase(members)
	if err != nil {
		return err
	}
	return db.InsertBase(id, value)
}

// resolveBase maps finest-level member values to their base node ID. The
// coordinate index is immutable after construction; resolution needs no
// lock.
func (db *DB) resolveBase(members []string) (int, error) {
	return resolveBaseIn(db.graph, members)
}

// resolveBaseIn is resolveBase against a bare graph, shared with the
// engine-free routing Planner so a coordinator resolves (and rejects)
// INSERT rows byte-identically to the engine.
func resolveBaseIn(g *cube.Graph, members []string) (int, error) {
	coord := make(cube.Coord, len(g.Dims))
	for d := range g.Dims {
		if d >= len(members) {
			return 0, fmt.Errorf("f2db: insert needs %d member values, got %d", len(g.Dims), len(members))
		}
		coord[d] = cube.Cell{Level: 0, Value: members[d]}
	}
	n := g.Lookup(coord)
	if n == nil || !n.IsBase {
		return 0, fmt.Errorf("f2db: unknown base series %v", members)
	}
	return n.ID, nil
}

// InsertBase is Insert addressed by base node ID (fast path for generated
// workloads). An insert that leaves the batch incomplete only takes the
// pending mutex; the engine write lock is taken once per completed batch,
// so insert streams never wait for concurrent readers.
func (db *DB) InsertBase(baseID int, value float64) (err error) {
	start := time.Now()
	defer func() {
		if err == nil {
			db.met.inserts.Add(1)
		}
		db.met.maintainNanos.Add(time.Since(start).Nanoseconds())
	}()
	if !db.graph.IsBase(baseID) {
		return fmt.Errorf("f2db: %d is not a base node", baseID)
	}
	for {
		db.lockPending()
		_, dup := db.pending[baseID]
		if !dup {
			db.pending[baseID] = value
		}
		complete := len(db.pending) == len(db.graph.BaseIDs)
		db.pmu.Unlock()
		if !complete {
			if dup {
				return errDuplicate(baseID)
			}
			return nil
		}
		// The batch is complete: this insert completed it, or the duplicate
		// belongs to a batch another inserter completed but has not applied
		// yet. Apply (or help apply) it; a duplicate then retries against
		// the fresh batch.
		if err := db.advanceIfComplete(); err != nil || !dup {
			return err
		}
	}
}

// InsertBatch adds new measure values for many base series (keyed by base
// node ID) in one call, taking the pending mutex once for the whole call;
// whenever the pending batch becomes complete, time advances under a single
// acquisition of the engine write lock. This is the write path for bulk
// producers — the workload generator, snapshot restore and multi-row SQL
// INSERTs — where per-value InsertBase locking dominates.
//
// Values are applied in ascending node-ID order. The call holds the pending
// mutex throughout unless it completes a batch, so a concurrent snapshot
// captures a call that does not complete a batch either whole or not at
// all. A value for a base series that already has a pending value in the
// current (incomplete) batch is a duplicate error, exactly as with
// InsertBase; values applied before the error stay pending.
func (db *DB) InsertBatch(values map[int]float64) (err error) {
	start := time.Now()
	applied := 0
	defer func() {
		db.met.inserts.Add(int64(applied))
		db.met.batchInserts.Add(1)
		db.met.maintainNanos.Add(time.Since(start).Nanoseconds())
	}()
	ids := make([]int, 0, len(values))
	for id := range values {
		if !db.graph.IsBase(id) {
			return fmt.Errorf("f2db: InsertBatch: %d is not a base node", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	db.lockPending()
	for i := 0; i < len(ids); {
		id := ids[i]
		_, dup := db.pending[id]
		if !dup {
			db.pending[id] = values[id]
			applied++
			i++
		}
		if len(db.pending) < len(db.graph.BaseIDs) {
			if dup {
				db.pmu.Unlock()
				return errDuplicate(id)
			}
			continue
		}
		// Complete batch: release the buffer (lock order is mu before pmu),
		// apply the advance, then continue with the rest of the call — a
		// duplicate retries against the fresh batch.
		db.pmu.Unlock()
		if err := db.advanceIfComplete(); err != nil || i == len(ids) {
			return err
		}
		db.lockPending()
	}
	db.pmu.Unlock()
	return nil
}

// errDuplicate reports a second value for a base series within one batch.
func errDuplicate(baseID int) error {
	return fmt.Errorf("f2db: duplicate insert for base node %d in current batch", baseID)
}

// lockPending acquires the pending mutex, counting contended acquisitions.
func (db *DB) lockPending() {
	if db.pmu.TryLock() {
		return
	}
	db.pendingContention.Add(1)
	db.pmu.Lock()
}

// advanceIfComplete applies the pending batch if it is (still) complete:
// under the engine write lock and the pending mutex it commits the batch,
// swaps in a fresh buffer and advances time. Safe to race: whichever caller
// takes the write lock first advances, the rest see an incomplete (fresh)
// batch and return.
func (db *DB) advanceIfComplete() error {
	g := db.wLock()
	db.lockPending()
	batch := db.pending
	if len(batch) < len(db.graph.BaseIDs) {
		db.pmu.Unlock()
		db.unlock(g)
		return nil
	}
	// Group commit: the batch must be durable before it is applied. On
	// error every value stays pending — nothing advanced, nothing was lost,
	// and the insert that triggered the advance reports the failure to its
	// caller.
	if db.commitHook != nil {
		if err := db.commitHook(uint64(db.graph.Length), batch); err != nil {
			db.pmu.Unlock()
			db.unlock(g)
			return err
		}
	}
	db.pending = make(map[int]float64, len(batch))
	db.pmu.Unlock()
	err := db.advanceBatch(g, batch)
	// Eager maintenance: collect the models this advance invalidated while
	// still under the lock, then re-fit them on the off-lock worker pool so
	// concurrent queries and inserts are never blocked by the fits.
	var invalid []int
	if err == nil && db.eager {
		invalid = db.invalidModelIDs()
	}
	db.unlock(g)
	if len(invalid) > 0 {
		db.reestimateMany(invalid)
	}
	return err
}

// advanceBatch processes a complete batch: appends the new values to every
// node series, updates model states and derivation weights incrementally,
// and applies the invalidation strategy. The guard must witness the write
// lock.
func (db *DB) advanceBatch(g guard, batch map[int]float64) error {
	db.assertExclusive(g)
	t := db.graph.Length // index of the new observation after Advance
	if err := db.graph.Advance(batch); err != nil {
		return err
	}
	db.met.batches.Add(1)

	// Model state updates: compare the one-step forecast against the new
	// actual to maintain the rolling error, then advance the state.
	for id, m := range db.cfg.Models {
		actual := db.graph.Node(id).Series.Values[t]
		st := db.mstats[id]
		if fc := m.Forecast(1); len(fc) == 1 {
			den := math.Abs(actual) + math.Abs(fc[0])
			if den > 0 {
				e := math.Abs(actual-fc[0]) / den
				st.RollingError = 0.9*st.RollingError + 0.1*e
			}
		}
		m.Update(actual)
		st.UpdatesSinceFit++
		if db.strategy.Invalidate(*st) {
			db.invalid[id] = true
		}
	}

	// Incremental derivation-weight maintenance.
	for id, sc := range db.cfg.Schemes {
		st, ok := db.schemes[id]
		if !ok {
			continue
		}
		st.hTarget += db.graph.Node(id).Series.Values[t]
		for _, s := range sc.Sources {
			st.hSources += db.graph.Node(s).Series.Values[t]
		}
	}
	// A time advance changes every node's series, every model's state and
	// the live derivation weights: every memoized forecast is stale. One
	// atomic increment per node invalidates them all without a sweep.
	if db.fc != nil {
		db.met.epochBumps.Add(db.fc.bumpAll())
	}
	return nil
}

// InvalidCount returns how many models currently await re-estimation.
func (db *DB) InvalidCount() int {
	g := db.rLock()
	defer db.unlock(g)
	c := 0
	for _, v := range db.invalid {
		if v {
			c++
		}
	}
	return c
}

// ModelHealth reports per-model maintenance state for monitoring: state
// updates since the last (re-)estimation, the rolling one-step SMAPE
// observed during maintenance and whether the model currently awaits
// re-estimation. Keyed by the node's canonical coordinate key.
type ModelHealth struct {
	Node            int
	Family          string
	UpdatesSinceFit int
	RollingError    float64
	Invalid         bool
}

// Health returns a snapshot of every model's maintenance state.
func (db *DB) Health() map[string]ModelHealth {
	g := db.rLock()
	defer db.unlock(g)
	out := make(map[string]ModelHealth, len(db.cfg.Models))
	for id, m := range db.cfg.Models {
		st := db.mstats[id]
		h := ModelHealth{Node: id, Family: m.Name(), Invalid: db.invalid[id]}
		if st != nil {
			h.UpdatesSinceFit = st.UpdatesSinceFit
			h.RollingError = st.RollingError
		}
		out[db.graph.Node(id).Key(db.graph.Dims)] = h
	}
	return out
}
