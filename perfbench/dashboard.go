package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/coord"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
)

// dashboard-coord: gen1k (1,111 nodes, 1,000 base series) served by two
// full-replica in-process shards behind the coordinator, with f2dbd's
// defaults (coordinator result cache 1,024 entries, TimeBased{Every: 8},
// non-durable shards). Independent dashboard users send forecast queries,
// 90% from a 64-statement hot set, plus a share of plain history SELECTs;
// one writer sends a full time-advance INSERT at a slow fixed cadence.
const (
	dashHot          = 64
	dashHotFraction  = 0.9
	dashHistoryShare = 0.2
	dashCoordCache   = 1024
	// dashAdvances is the number of time advances each measured stack
	// receives, evenly spaced over its phase: a slow cadence, so the few
	// requests queued behind an insert stay well under 1% and the median
	// reflects the read path. It is below the 8-update invalidation
	// period, so no model is re-fitted and every answer is a pure function
	// of the series state — which is what lets the twin check be
	// bit-exact.
	dashAdvances = 7
	// dashSetups is the number of stacks set up per run (set-up figures
	// are medians over them); the first serves the open loop, the second
	// the capacity loop, the third the traced loop.
	dashSetups      = 15
	dashPeakWorkers = 4
	dashMaxInflight = 512
)

// dashRate is the offered rate of forecast and history queries per
// second (smoke mode: 300): a light load, so latency grows in proportion
// when the host slows instead of queueing up.
func dashRate(cfg config) float64 {
	if cfg.small {
		return 300
	}
	return 2000
}

func dashGraph(cfg config) (*cube.Graph, time.Duration, error) {
	ds, err := daemonDataset(cfg, "gen1k")
	if err != nil {
		return nil, 0, err
	}
	return buildGraph(ds)
}

// dashSystem is one assembled dashboard stack.
type dashSystem struct {
	setupInfo
	snapshot []byte // engine image the shards (and the twin) load
	shards   []*served
	shardDBs []*f2db.DB
	co       *coord.Coordinator
	front    *served
	cl       *fclient.Client
}

func (s *dashSystem) info() *setupInfo { return &s.setupInfo }

// setupDashboard builds the data set and graph, runs the advisor, opens
// two replica engines behind wire servers, the coordinator behind a third,
// and dials a two-connection client — everything f2dbd's cluster
// quickstart does, in one process.
func setupDashboard(cfg config, tr *tracer) (*dashSystem, error) {
	start := time.Now()
	s := &dashSystem{}
	g, gb, err := dashGraph(cfg)
	if err != nil {
		return nil, err
	}
	s.graphBuild = gb
	if s.advisor, err = advise(g, nil); err != nil {
		return nil, err
	}
	src, err := f2db.Open(g, s.advisor.cfg, engineOptions())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		return nil, err
	}
	s.snapshot = buf.Bytes()
	var addrs []string
	for i := 0; i < 2; i++ {
		db, err := f2db.LoadDatabase(bytes.NewReader(s.snapshot), engineOptions())
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		sv, err := serve(&timedBackend{inner: engineBackend{db}, tr: tr, layer: layerEngine, name: "f2db"})
		if err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.shardDBs = append(s.shardDBs, db)
		s.shards = append(s.shards, sv)
		addrs = append(addrs, sv.addr())
	}
	if s.co, err = coord.New(src.Planner(), addrs, coord.Options{CacheSize: dashCoordCache}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.front, err = serve(&timedBackend{inner: s.co, tr: tr, layer: layerCoord, name: "coord"}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.cl, err = fclient.Dial(s.front.addr(), fclient.Options{PoolSize: 2}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.setup = time.Since(start)
	return s, nil
}

// close tears the stack down outside in and waits for every server.
func (s *dashSystem) close() error {
	var err error
	if s.cl != nil {
		s.cl.Close()
	}
	if s.front != nil {
		err = s.front.stop()
	}
	if s.co != nil {
		err = errors.Join(err, s.co.Close())
	}
	for _, sv := range s.shards {
		err = errors.Join(err, sv.stop())
	}
	return err
}

// engineMetrics sums the shard engines' counters.
func (s *dashSystem) engineMetrics() f2db.Metrics {
	var sum f2db.Metrics
	for _, db := range s.shardDBs {
		addEngineMetrics(&sum, db.Metrics())
	}
	return sum
}

// dashStream draws the query stream: node from the hot set with
// probability dashHotFraction, else uniform; history with probability
// dashHistoryShare, else forecast.
func dashStream(rng *rand.Rand, st *statements, nodes, n int) []int {
	out := make([]int, n)
	for i := range out {
		id := rng.Intn(nodes)
		if rng.Float64() < dashHotFraction {
			id = st.hot[rng.Intn(len(st.hot))]
		}
		if rng.Float64() < dashHistoryShare {
			out[i] = historyStmt(id)
		} else {
			out[i] = forecastStmt(id)
		}
	}
	return out
}

// twinCheck checks every answer the cluster gives against a twin engine
// loaded from the same image and fed the same advances. The twin's
// answers to every statement at every advance count are computed before
// the phase; a reply is then checked as it arrives, against the states it
// may have observed: every advance acknowledged before the send, up to
// every advance sent before the reply.
type twinCheck struct {
	answers     [][]uint64 // [advance count][statement] → result digest
	sent, acked atomic.Int64
	mismatches  atomic.Int64
}

func newTwinCheck(snapshot []byte, st *statements) (*twinCheck, error) {
	twin, err := f2db.LoadDatabase(bytes.NewReader(snapshot), engineOptions())
	if err != nil {
		return nil, err
	}
	tc := &twinCheck{answers: make([][]uint64, dashAdvances+1)}
	for k := range tc.answers {
		tc.answers[k] = make([]uint64, len(st.sql))
		for i, sql := range st.sql {
			res, err := twin.Query(sql)
			if err != nil {
				return nil, fmt.Errorf("twin query %q: %w", sql, err)
			}
			tc.answers[k][i] = digestResult(res)
		}
		if k < dashAdvances {
			if err := twin.Exec(st.inserts[k][0]); err != nil {
				return nil, fmt.Errorf("twin insert: %w", err)
			}
		}
	}
	return tc, nil
}

// verify checks the digest of an answer to stmt sent after lo advances
// were acknowledged; it is called when the answer arrives.
func (tc *twinCheck) verify(stmt int, lo int64, digest uint64) {
	hi := tc.sent.Load()
	for k := lo; k <= hi; k++ {
		if tc.answers[k][stmt] == digest {
			return
		}
	}
	tc.mismatches.Add(1)
}

// exec sends advance k, keeping the writer progress verify reads.
func (tc *twinCheck) exec(exec func(sql string) error, st *statements, k int) error {
	tc.sent.Add(1)
	err := exec(st.inserts[k][0])
	if err == nil {
		tc.acked.Add(1)
	}
	return err
}

// runWriter sends the dashAdvances advances at evenly spaced due times
// over dur, each after the previous one is acknowledged, and stops at the
// first failure (the twin cannot follow a half-applied history).
func runWriter(start time.Time, dur time.Duration, st *statements, exec func(sql string) error, tc *twinCheck) []record {
	var recs []record
	for k := 0; k < dashAdvances; k++ {
		due := dur * time.Duration(k+1) / time.Duration(dashAdvances+1)
		sleepUntil(start.Add(due))
		rec := record{kind: opInsert, due: due, sent: time.Since(start)}
		rec.err = tc.exec(exec, st, k)
		rec.done = time.Since(start)
		recs = append(recs, rec)
		if rec.err != nil {
			break
		}
	}
	return recs
}

// query returns the request function for stream position i.
func (s *dashSystem) query(st *statements, stream []int, tc *twinCheck) func(i int, rec *record) {
	return func(i int, rec *record) {
		stmt := stream[i%len(stream)]
		rec.kind = stmtKind(stmt)
		lo := tc.acked.Load()
		res, err := s.cl.Query(st.sql[stmt])
		if err != nil {
			rec.err = err
			return
		}
		tc.verify(stmt, lo, digestResult(res))
	}
}

func runDashboard(cfg config, res *result, tr *tracer) error {
	render, _, err := dashGraph(cfg)
	if err != nil {
		return err
	}
	st := renderStatements(render, cfg.seed, dashHot, dashAdvances, 1)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	stream := dashStream(rng, st, render.NumNodes(), streamLen)
	openDur, peakDur := share(cfg, 0.5), share(cfg, 0.5)
	arrivals := poissonArrivals(rng, dashRate(cfg), openDur)

	phases := []func(*dashSystem) error{
		func(s *dashSystem) error { return dashOpen(cfg, res, s, st, stream, arrivals, openDur) },
		func(s *dashSystem) error { return dashPeak(res, s, st, stream, peakDur) },
	}
	if tr != nil {
		phases = append(phases, func(s *dashSystem) error { return dashTraced(res, tr, s, st, stream, share(cfg, 0.5)) })
	}
	return runStacks(res, dashSetups, func(int) (*dashSystem, error) { return setupDashboard(cfg, tr) }, phases)
}

// dashOpen runs the open loop: queries at the fixed offered rate, the
// writer at its cadence. The medians are medians over windows; the tail
// quantiles pool every read.
func dashOpen(cfg config, res *result, s *dashSystem, st *statements, stream []int, arrivals []time.Duration, dur time.Duration) error {
	tc, err := s.twin(st)
	if err != nil {
		return err
	}
	var recs, ins []record
	dashPhase(s, st, tc, dur, &ins, func(start time.Time) {
		recs = openLoop(start, arrivals, dashMaxInflight, s.query(st, stream, tc))
	})
	dashGate(res, "open loop", tallyOf(append(recs, ins...)), tc)
	forecasts := latencies(recs, opForecast)
	res.set("query_open_p50_us", windowedP50(samples(recs, opForecast), dur))
	res.set("query_p99_us", quantile(forecasts, 0.99))
	res.set("query_p999_us", quantile(forecasts, 0.999))
	res.set("history_p50_us", windowedP50(samples(recs, opHistory), dur))
	res.set("insert_p50_ms", quantile(latencies(ins, opInsert), 0.5)/1e3)
	res.set("insert_p90_ms", quantile(latencies(ins, opInsert), 0.9)/1e3)
	res.set("gen.lateness_p99_us", quantile(lateness(recs), 0.99))
	res.note("open loop: %d queries at %.0f/s offered over %s, %d advances", len(recs), dashRate(cfg), dur, len(ins))
	return nil
}

// dashPeak measures capacity and the query latency at capacity: a
// closed loop of dashPeakWorkers workers sharing the two connections, the
// writer at its cadence. The loop keeps both CPUs busy, so its latency is
// the cost of the work, not of waking an idle host.
func dashPeak(res *result, s *dashSystem, st *statements, stream []int, dur time.Duration) error {
	tc, err := s.twin(st)
	if err != nil {
		return err
	}
	var reads tally
	var xs []sample
	var ins []record
	dashPhase(s, st, tc, dur, &ins, func(start time.Time) {
		reads, xs = closedLoop(start, dur, dashPeakWorkers, s.query(st, stream, tc))
	})
	res.set("peak_qps", float64(reads.ops)/dur.Seconds())
	res.set("query_p50_us", windowedP50(xs, dur))
	reads.merge(tallyOf(ins))
	dashGate(res, "capacity loop", reads, tc)
	return nil
}

// twin computes the twin answers for a phase on s, then returns the
// garbage that left, so the phase does not pay for it.
func (s *dashSystem) twin(st *statements) (*twinCheck, error) {
	tc, err := newTwinCheck(s.snapshot, st)
	resetPeakRSS()
	return tc, err
}

// dashPhase runs one phase of dur on s: drive sends the queries while the
// writer sends the advances at its cadence into ins.
func dashPhase(s *dashSystem, st *statements, tc *twinCheck, dur time.Duration, ins *[]record, drive func(start time.Time)) {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		*ins = runWriter(start, dur, st, s.cl.Exec, tc)
	}()
	drive(start)
	wg.Wait()
}

// dashGate counts a phase's operations and reports its twin mismatches.
func dashGate(res *result, phase string, t tally, tc *twinCheck) {
	res.count(phase, t)
	if n := tc.mismatches.Load(); n > 0 {
		res.fail("%s: %d of %d answers differ from the twin engine", phase, n, t.ops)
	}
}

// dashTraced drives one connection in closed loop on a fresh stack —
// queries back to back, the advances sent inline at evenly spaced points —
// tracing every other query and every insert (with the replicas' applies
// of it). It derives the per-layer metrics from the spans and from the
// counters over the loop, and compares the traced and untraced queries for
// the tracing overhead.
func dashTraced(res *result, tr *tracer, s *dashSystem, st *statements, stream []int, dur time.Duration) error {
	tc, err := s.twin(st)
	if err != nil {
		return err
	}
	cl, err := fclient.Dial(s.front.addr(), fclient.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	var ops tally
	var plain, traced []float64
	coord1, eng1, bytes1, rt1 := snapshotCoord(s.co), s.engineMetrics(), s.front.bytes(), readRuntime()
	start := time.Now()
	for i, k := 0, 0; time.Since(start) < dur; i++ {
		if k < dashAdvances && time.Since(start) >= dur*time.Duration(k+1)/(dashAdvances+1) {
			tr.trace(true)
			tk := tr.begin(layerClient, "client.exec")
			err := tc.exec(cl.Exec, st, k)
			tr.end(tk)
			ops.add(err)
			if err != nil {
				break
			}
			k++
			// Exec returns once one replica applied the insert; keep
			// tracing until the other has too.
			for !s.co.CaughtUp() {
				time.Sleep(100 * time.Microsecond)
			}
			continue
		}
		on := i%2 == 1
		tr.trace(on)
		stmt := stream[i%len(stream)]
		lo := tc.acked.Load()
		t := time.Now()
		tk := tr.begin(layerClient, "client.query")
		r, err := cl.Query(st.sql[stmt])
		tr.end(tk)
		lat := us(time.Since(t))
		ops.add(err)
		if err != nil {
			continue
		}
		tc.verify(stmt, lo, digestResult(r))
		if on {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}
	}
	tr.trace(false)
	coord2, eng2, bytes2, rt2 := snapshotCoord(s.co), s.engineMetrics(), s.front.bytes(), readRuntime()

	dashGate(res, "traced loop", ops, tc)
	setRuntime(res, rt1, rt2, ops.ops)
	res.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	sp := analyze(tr.snapshot())
	res.set("trace.spans", float64(len(sp.spans)))
	res.set("wire.hop_self_us", median(sp.selfTimes("client.query", "coord.query")))
	res.set("wire.bytes_per_query", ratio(float64(bytes2-bytes1), float64(ops.ops)))
	res.set("coord.query_self_us", median(sp.selfTimes("coord.query", "f2db.query")))
	res.set("coord.exec_p50_ms", median(sp.byName["coord.exec"])/1e3)
	setCoordMetrics(res, coord1, coord2)
	res.set("f2db.query_p50_us", quantile(sp.byName["f2db.query"], 0.5))
	res.set("f2db.query_p99_us", quantile(sp.byName["f2db.query"], 0.99))
	res.set("f2db.exec_p50_ms", median(sp.byName["f2db.exec"])/1e3)
	setEngineMetrics(res, eng1, eng2)
	setAdvisorMetrics(res, s.advisor)
	return nil
}
