package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/segment"
)

// ingest-durable: cube10k served from one durable engine (fsync=always,
// TimeBased{Every: 8}, compaction every ingestCompactEvery batches) behind
// one wire server, no coordinator. Two writer streams each send half of
// every time advance at a fixed batch rate; a reader sends forecast
// queries at a fixed rate, one in eight from a 64-statement hot set
// re-read after every advance, the rest uniform over all nodes — more
// statements than the plan cache (256) and the forecast memo (4,096) hold.
// After the open loop the engine is closed and recovered.
const (
	ingestHot          = 64
	ingestHotEvery     = 8
	ingestStreams      = 2
	ingestCompactEvery = 2
	ingestRendered     = 16 // distinct advances rendered; phases cycle them
	ingestReopens      = 3
	ingestSetups       = 5
	ingestPeakReaders  = 4
	ingestMaxInflight  = 256
	ingestCheckUniform = 192
)

type ingestSize struct {
	batchRate float64 // time advances per second
	queryRate float64 // forecast queries per second
}

func ingestSizing(cfg config) ingestSize {
	if cfg.small {
		return ingestSize{batchRate: 20, queryRate: 200}
	}
	return ingestSize{batchRate: 2, queryRate: 1000}
}

// ingestSystem is one durable engine behind a wire server.
type ingestSystem struct {
	setupInfo
	dir       string
	dur       *f2db.Durable
	srv       *served
	cl        *fclient.Client
	baseBytes int64  // durable directory size right after open
	snapshot  []byte // the initial engine image OpenDurable wrote
	initLen   int    // series length before any insert
}

func (s *ingestSystem) info() *setupInfo { return &s.setupInfo }

func durableOptions(dir string, fs segment.FS) f2db.DurableOptions {
	return f2db.DurableOptions{Dir: dir, FS: fs, Sync: segment.SyncAlways, CompactEvery: ingestCompactEvery}
}

// setupIngest builds the cube and graph, runs the advisor inside
// OpenDurable's build step (which writes the initial snapshot), starts the
// wire server and dials a two-connection client.
func setupIngest(cfg config, dir string, fs *timedFS, tr *tracer) (*ingestSystem, error) {
	start := time.Now()
	s := &ingestSystem{dir: dir}
	ds, err := daemonDataset(cfg, "cube10k")
	if err != nil {
		return nil, err
	}
	g, gb, err := buildGraph(ds)
	if err != nil {
		return nil, err
	}
	s.graphBuild = gb
	s.dur, err = f2db.OpenDurable(durableOptions(dir, fs), engineOptions(), func() (*f2db.DB, error) {
		run, err := advise(g, nil)
		if err != nil {
			return nil, err
		}
		s.advisor = run
		return f2db.Open(g, run.cfg, engineOptions())
	})
	if err != nil {
		return nil, err
	}
	s.initLen = s.dur.DB().Graph().Length()
	if s.snapshot, err = os.ReadFile(filepath.Join(dir, "snapshot.db")); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.srv, err = serve(&timedBackend{inner: engineBackend{s.dur.DB()}, tr: tr, layer: layerEngine, name: "f2db"}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if s.cl, err = fclient.Dial(s.srv.addr(), fclient.Options{PoolSize: 2}); err != nil {
		return nil, errors.Join(err, s.close())
	}
	s.setup = time.Since(start)
	if s.baseBytes, err = dirBytes(dir); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// close stops the server and closes the WAL (no checkpoint: the directory
// is left as a crash would leave it, minus the torn tail).
func (s *ingestSystem) close() error {
	if s.cl != nil {
		s.cl.Close()
		s.cl = nil
	}
	var err error
	if s.srv != nil {
		err = s.srv.stop()
		s.srv = nil
	}
	if s.dur != nil {
		err = errors.Join(err, s.dur.Close())
		s.dur = nil
	}
	return err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// ingestStream is the reader's statement sequence: every ingestHotEvery-th
// position walks the hot set round robin (re-read several times per
// advance), the others are uniform over all nodes. Uniform reads hit the
// memo about one time in five (it holds 4,096 of 10,201 statements and
// every advance invalidates it), so with one read in eight hot about two
// thirds of all reads miss: the median latency lies well inside the miss
// population rather than on the boundary between hits and misses, where
// it would flip from run to run.
func ingestStream(rng *rand.Rand, st *statements, nodes, n int) []int {
	out := make([]int, n)
	for i := range out {
		if i%ingestHotEvery == 0 {
			out[i] = forecastStmt(st.hot[(i/ingestHotEvery)%len(st.hot)])
		} else {
			out[i] = forecastStmt(rng.Intn(nodes))
		}
	}
	return out
}

// advance sends both halves of time advance k concurrently, one per
// writer stream, and records each.
func advance(cl *fclient.Client, st *statements, k int, start time.Time, due time.Duration) []record {
	recs := make([]record, ingestStreams)
	var wg sync.WaitGroup
	for j := range recs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rec := &recs[j]
			rec.kind, rec.due, rec.sent = opInsert, due, time.Since(start)
			rec.err = cl.Exec(st.inserts[k%len(st.inserts)][j])
			rec.done = time.Since(start)
		}(j)
	}
	wg.Wait()
	return recs
}

func acked(recs []record) bool {
	for _, r := range recs {
		if r.err != nil {
			return false
		}
	}
	return true
}

func (s *ingestSystem) query(st *statements, stream []int) func(i int, rec *record) {
	return func(i int, rec *record) {
		stmt := stream[i%len(stream)]
		rec.kind = opForecast
		res, err := s.cl.Query(st.sql[stmt])
		if err == nil && len(res.Rows) == 0 {
			err = fmt.Errorf("empty forecast for %q", st.sql[stmt])
		}
		rec.err = err
	}
}

func runIngest(cfg config, res *result, tr *tracer) error {
	sz := ingestSizing(cfg)
	ds, err := daemonDataset(cfg, "cube10k")
	if err != nil {
		return err
	}
	render, _, err := buildGraph(ds)
	if err != nil {
		return err
	}
	st := renderStatements(render, cfg.seed, ingestHot, ingestRendered, ingestStreams)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	openDur := share(cfg, 0.4)
	arrivals := poissonArrivals(rng, sz.queryRate, openDur)
	stream := ingestStream(rng, st, render.NumNodes(), streamLen)
	base := len(render.BaseIDs)

	fs := &timedFS{FS: segment.OSFS{}, tr: tr}
	phases := []func(*ingestSystem) error{
		func(s *ingestSystem) error { return ingestOpen(res, s, st, stream, arrivals, openDur, sz, base) },
		func(s *ingestSystem) error { return ingestReadPeak(res, s, st, stream, sz, share(cfg, 0.4)) },
		func(s *ingestSystem) error { return ingestWritePeak(res, s, st, stream, share(cfg, 0.2), base) },
	}
	if tr != nil {
		phases = append(phases, func(s *ingestSystem) error { return ingestTraced(res, tr, fs, s, st, stream, sz, share(cfg, 0.4)) })
	}
	setup := func(i int) (*ingestSystem, error) {
		return setupIngest(cfg, filepath.Join(cfg.outDir, fmt.Sprintf("durable-%d", i)), fs, tr)
	}
	if err := runStacks(res, ingestSetups, setup, phases); err != nil {
		return err
	}
	res.set("segment.snapshot_write_ms", median(fs.snapMS.take()))
	return nil
}

// ingestOpen runs the open loop — advances at the fixed batch rate,
// queries at the fixed query rate — then the recovery gates.
func ingestOpen(res *result, s *ingestSystem, st *statements, stream []int, arrivals []time.Duration, dur time.Duration, sz ingestSize, base int) error {
	start := time.Now()
	w := startWriter(s, st, start, dur, sz)
	reads := openLoop(start, arrivals, ingestMaxInflight, s.query(st, stream))
	ins, ackedAdv := w.wait()
	// The median is the median over windows of the schedule; the tail
	// quantiles pool all reads.
	res.set("query_open_p50_us", windowedP50(samples(reads, opForecast), dur))
	res.set("query_p99_us", quantile(latencies(reads, opForecast), 0.99))
	res.set("query_p999_us", quantile(latencies(reads, opForecast), 0.999))
	res.set("insert_p50_ms", quantile(latencies(ins, opInsert), 0.5)/1e3)
	res.set("insert_p90_ms", quantile(latencies(ins, opInsert), 0.9)/1e3)
	res.set("gen.lateness_p99_us", quantile(lateness(reads), 0.99))
	res.note("open loop: %d queries at %.0f/s offered, %d advances acknowledged over %s", len(reads), sz.queryRate, ackedAdv, dur)
	res.count("open loop", tallyOf(append(reads, ins...)))
	return ingestRecovery(res, s, ackedAdv, base, st)
}

// writer sends time advances at the fixed batch rate in the background.
type writer struct {
	done  chan struct{}
	ins   []record
	acked int
}

// startWriter sends advance k at start + k/batchRate, both halves at
// once, until dur; it stops at the first failure, since the halves must
// complete in order.
func startWriter(s *ingestSystem, st *statements, start time.Time, dur time.Duration, sz ingestSize) *writer {
	w := &writer{done: make(chan struct{})}
	n := int(sz.batchRate * dur.Seconds())
	go func() {
		defer close(w.done)
		for k := 0; k < n; k++ {
			due := time.Duration(float64(k) / sz.batchRate * float64(time.Second))
			sleepUntil(start.Add(due))
			recs := advance(s.cl, st, k, start, due)
			w.ins = append(w.ins, recs...)
			if !acked(recs) {
				return
			}
			w.acked++
		}
	}()
	return w
}

// wait returns the insert records and the number of acknowledged
// advances once the writer is done.
func (w *writer) wait() ([]record, int) {
	<-w.done
	return w.ins, w.acked
}

// ingestReadPeak measures read capacity and the query latency at
// capacity: a closed loop of ingestPeakReaders readers sharing the two
// connections, the writers at the fixed batch rate. The loop keeps both
// CPUs busy, so its latency is the cost of the work, not of waking an
// idle host.
func ingestReadPeak(res *result, s *ingestSystem, st *statements, stream []int, sz ingestSize, dur time.Duration) error {
	start := time.Now()
	w := startWriter(s, st, start, dur, sz)
	reads, xs := closedLoop(start, dur, ingestPeakReaders, s.query(st, stream))
	ins, _ := w.wait()
	res.set("peak_qps", float64(reads.ops)/dur.Seconds())
	res.set("query_p50_us", windowedP50(xs, dur))
	reads.merge(tallyOf(ins))
	res.count("read capacity loop", reads)
	return nil
}

// ingestWritePeak measures write capacity in closed loop: both streams
// advance as fast as acknowledgements allow while one reader queries back
// to back.
func ingestWritePeak(res *result, s *ingestSystem, st *statements, stream []int, dur time.Duration, base int) error {
	start := time.Now()
	var rows int64
	var ins []record
	var lastAck time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; time.Since(start) < dur; k++ {
			recs := advance(s.cl, st, k, start, time.Since(start))
			ins = append(ins, recs...)
			if !acked(recs) {
				return
			}
			rows += int64(base)
			lastAck = time.Since(start)
		}
	}()
	reads, _ := closedLoop(start, dur, 1, s.query(st, stream))
	wg.Wait()
	res.set("peak_rows_s", ratio(float64(rows), lastAck.Seconds()))
	reads.merge(tallyOf(ins))
	res.count("write capacity loop", reads)
	return nil
}

// seriesDigest hashes the length and every node's values bit-exactly.
func seriesDigest(db *f2db.DB) (uint64, int) {
	gv := db.Graph()
	h := fnv.New64a()
	var buf [8]byte
	for id := 0; id < gv.NumNodes(); id++ {
		for _, v := range gv.NodeValues(id) {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64(), gv.Length()
}

// forecastDigest answers the hot set and a fixed uniform sample in-process
// and hashes the answers.
func forecastDigest(db *f2db.DB, st *statements) (uint64, error) {
	h := fnv.New64a()
	var buf [8]byte
	ids := append([]int(nil), st.hot...)
	rng := rand.New(rand.NewSource(int64(len(st.sql))))
	for i := 0; i < ingestCheckUniform; i++ {
		ids = append(ids, rng.Intn(len(st.sql)/2))
	}
	for _, id := range ids {
		r, err := db.Query(st.sql[forecastStmt(id)])
		if err != nil {
			return 0, err
		}
		d := digestResult(r)
		for i := range buf {
			buf[i] = byte(d >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64(), nil
}

// ingestRecovery closes the engine as a crash would (WAL closed, no
// checkpoint) and reopens it through recovery several times, checking
// that the series hold exactly the acknowledged advances, bit for bit.
// The recovered forecasts are then checked against a twin engine loaded
// from the initial snapshot and fed the acknowledged advances: recovery
// promises the state of an engine that applied exactly those batches.
// (Forecasts taken before the close are not comparable: the live engine
// re-fitted models lazily whenever queries touched them, and recovery
// re-derives re-fits lazily at its own first queries.)
func ingestRecovery(res *result, s *ingestSystem, ackedAdv, base int, st *statements) error {
	before, length := seriesDigest(s.dur.DB())
	want := s.initLen + ackedAdv
	if length != want {
		res.fail("series length %d before close, want %d (initial %d + %d acknowledged advances)", length, want, s.initLen, ackedAdv)
	}
	size, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	res.set("disk_bytes_per_value", ratio(float64(size-s.baseBytes), float64(ackedAdv*base)))
	if err := s.close(); err != nil {
		return fmt.Errorf("closing durable engine: %w", err)
	}

	noBuild := func() (*f2db.DB, error) { return nil, errors.New("durable directory lost its snapshot") }
	var took []float64
	var d *f2db.Durable
	for i := 0; i < ingestReopens; i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return err
			}
		}
		t := time.Now()
		if d, err = f2db.OpenDurable(durableOptions(s.dir, nil), engineOptions(), noBuild); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		took = append(took, since(t))
		after, n := seriesDigest(d.DB())
		if n != want || after != before {
			res.fail("recovered series: length %d (want %d), digest match %v", n, want, after == before)
		}
	}
	defer d.Close()
	res.set("recover_s", median(took))

	twin, err := f2db.LoadDatabase(bytes.NewReader(s.snapshot), engineOptions())
	if err != nil {
		return err
	}
	for k := 0; k < ackedAdv; k++ {
		for _, sql := range st.inserts[k%len(st.inserts)] {
			if err := twin.Exec(sql); err != nil {
				return fmt.Errorf("twin insert: %w", err)
			}
		}
	}
	got, err := forecastDigest(d.DB(), st)
	if err != nil {
		return err
	}
	exp, err := forecastDigest(twin, st)
	if err != nil {
		return err
	}
	if got != exp {
		res.fail("recovered forecasts differ from the twin fed the %d acknowledged advances", ackedAdv)
	}
	return nil
}

// ingestTraced drives one connection in closed loop on a fresh engine —
// queries back to back, both halves of each advance sent inline when the
// batch rate has it due — tracing every insert and every other query. It
// derives the per-layer metrics from the spans and from the counters over
// the loop, and compares the traced and untraced queries for the tracing
// overhead.
func ingestTraced(res *result, tr *tracer, fs *timedFS, s *ingestSystem, st *statements, stream []int, sz ingestSize, dur time.Duration) error {
	cl, err := fclient.Dial(s.srv.addr(), fclient.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	var ops tally
	var plain, traced []float64
	eng1, bytes1, rt1, fsyncs1 := s.dur.DB().Metrics(), s.srv.bytes(), readRuntime(), fs.fsyncs.Load()
	fs.fsyncMS.take()
	fs.compactMS.take()
	start := time.Now()
	for i, k := 0, 0; time.Since(start) < dur; i++ {
		if now := time.Since(start); now.Seconds()*sz.batchRate >= float64(k) {
			tr.trace(true) // every insert is traced
			for j := 0; j < ingestStreams; j++ {
				tk := tr.begin(layerClient, "client.exec")
				err := cl.Exec(st.inserts[k%len(st.inserts)][j])
				tr.end(tk)
				ops.add(err)
			}
			k++
		}
		on := i%2 == 1
		tr.trace(on)
		stmt := stream[i%len(stream)]
		t := time.Now()
		tk := tr.begin(layerClient, "client.query")
		_, err := cl.Query(st.sql[stmt])
		tr.end(tk)
		ops.add(err)
		if on {
			traced = append(traced, us(time.Since(t)))
		} else {
			plain = append(plain, us(time.Since(t)))
		}
	}
	tr.trace(false)
	eng2, bytes2, rt2, fsyncs2 := s.dur.DB().Metrics(), s.srv.bytes(), readRuntime(), fs.fsyncs.Load()
	res.count("traced loop", ops)
	values := float64(eng2.Inserts - eng1.Inserts)
	setRuntime(res, rt1, rt2, ops.ops)
	res.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	sp := analyze(tr.snapshot())
	res.set("trace.spans", float64(len(sp.spans)))
	res.set("wire.hop_self_us", median(sp.selfTimes("client.query", "f2db.query")))
	res.set("wire.bytes_per_query", ratio(float64(bytes2-bytes1), float64(ops.ops)))
	res.set("f2db.query_p50_us", quantile(sp.byName["f2db.query"], 0.5))
	res.set("f2db.query_p99_us", quantile(sp.byName["f2db.query"], 0.99))
	res.set("f2db.exec_p50_ms", median(sp.byName["f2db.exec"])/1e3)
	setEngineMetrics(res, eng1, eng2)
	res.set("segment.fsyncs", float64(fsyncs2-fsyncs1))
	res.set("segment.fsync_p50_ms", median(fs.fsyncMS.take()))
	res.set("segment.wal_bytes_per_value", ratio(float64(eng2.WALBytes-eng1.WALBytes), values))
	res.set("segment.compactions", float64(eng2.SegmentCompactions-eng1.SegmentCompactions))
	res.set("segment.compaction_ms", median(fs.compactMS.take()))
	setAdvisorMetrics(res, s.advisor)
	return nil
}
