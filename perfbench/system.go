package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/datasets"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/server"
)

// engineOptions mirrors f2dbd's engine defaults: time-based invalidation
// every 8 state updates, everything else at the package defaults (plan
// cache 256, forecast memo 4096, stripes and re-fit pool near GOMAXPROCS).
func engineOptions() f2db.Options {
	return f2db.Options{Strategy: f2db.TimeBased{Every: 8}}
}

// daemonDataset loads a named data set the way f2dbd -dataset does, with
// the experiments' fixed data seed: the serving workloads serve one
// deployment's data, and the benchmark seed drives their traffic. Smoke
// mode swaps in a 300-node cube.
func daemonDataset(cfg config, name string) (*datasets.Dataset, error) {
	if cfg.small {
		name = "cube300"
	}
	return experiments.LoadDataset(name, experiments.Quick)
}

// buildGraph materializes the data set's hyper graph and returns the time
// it took (the cube layer's share of set-up).
func buildGraph(ds *datasets.Dataset) (*cube.Graph, time.Duration, error) {
	t := time.Now()
	g, err := ds.Graph()
	return g, time.Since(t), err
}

// share returns fraction f of the run's seconds.
func share(cfg config, f float64) time.Duration {
	return time.Duration(f * cfg.seconds * float64(time.Second))
}

// setupInfo is what an assembled stack reports about its set-up.
type setupInfo struct {
	setup      time.Duration // data set and graph build through client dial
	graphBuild time.Duration
	advisor    *adviseRun
}

// stack is one assembled system under test.
type stack interface {
	info() *setupInfo
	close() error
}

// runStacks sets up n stacks one after another and hands the first ones
// to the phases, in order. Each stack is closed before the next is built,
// so one system's heap is live at a time, and the heap is collected
// before every set-up and every phase, so neither pays for the garbage of
// the one before it. setup_s, advise_s and cube.graph_build_s are the
// medians over all n set-ups; every advised configuration is validated.
// rss_peak_mb is the largest peak resident set of any phase, each counted
// from the stack's own footprint after its set-up garbage is returned.
func runStacks[S stack](res *result, n int, setup func(i int) (S, error), phases []func(S) error) error {
	var setups, advises, builds []float64
	rss := 0.0
	for i := 0; i < n; i++ {
		runtime.GC()
		s, err := setup(i)
		if err != nil {
			return err
		}
		in := s.info()
		checkAdvice(res, in.advisor)
		setups = append(setups, in.setup.Seconds())
		advises = append(advises, in.advisor.elapsed.Seconds())
		builds = append(builds, in.graphBuild.Seconds())
		if i < len(phases) {
			resetPeakRSS()
			err = phases[i](s)
			rss = max(rss, peakRSSMB())
		}
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	res.set("setup_s", median(setups))
	res.set("advise_s", median(advises))
	res.set("cube.graph_build_s", median(builds))
	res.set("rss_peak_mb", rss)
	return nil
}

// adviseRun is one advisor run to completion in exact mode, driven through
// NewAdvisor/Step so every Step can be timed (and traced).
type adviseRun struct {
	cfg     *core.Configuration
	metrics core.AdvisorMetrics
	steps   []float64 // Step durations, ms
	elapsed time.Duration
}

// adviseGamma is the preselection parameter γ the advisor runs at. f2dbd
// lets the γ feedback control steer γ, but that control compares measured
// wall-clock phase times, so its work and its configuration change from
// run to run with the host's speed (35–52 models on cube10k) — noise that
// says nothing about the code. With γ fixed at 0.5 the advisor does the
// same work and returns the same configuration every run, of about the
// size and error the feedback control reaches (cube10k: 29 models, test
// error 0.050; gen1k: 25 models, 0.078). The α schedule still runs.
const adviseGamma = 0.5

// advise runs the advisor to completion with f2dbd's options (seed 42,
// exact mode) and γ fixed at adviseGamma.
func advise(g *cube.Graph, tr *tracer) (*adviseRun, error) {
	start := time.Now()
	a, err := core.NewAdvisor(g, core.Options{Seed: 42, Exact: true, FixedGamma: true, Gamma0: adviseGamma})
	if err != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	defer a.Close()
	run := &adviseRun{}
	for {
		t := time.Now()
		tk := tr.begin(layerEngine, "core.step")
		done, err := a.Step()
		tr.end(tk)
		run.steps = append(run.steps, ms(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("advisor step: %w", err)
		}
		if done {
			break
		}
	}
	run.elapsed = time.Since(start)
	run.cfg = a.Configuration()
	run.metrics = a.Metrics()
	return run, nil
}

// orphanModels counts models no derivation scheme uses as a source: they
// are maintained on every insert but never read by any query.
func orphanModels(cfg *core.Configuration) int {
	used := make(map[int]bool, len(cfg.Models))
	for _, sc := range cfg.Schemes {
		for _, s := range sc.Sources {
			used[s] = true
		}
	}
	n := 0
	for id := range cfg.Models {
		if !used[id] {
			n++
		}
	}
	return n
}

// timedBackend is a server.Backend that forwards to another backend and
// records a span around every Query and Exec at its layer.
type timedBackend struct {
	inner server.Backend
	tr    *tracer
	layer int
	name  string // span name prefix: "coord" or "f2db"
}

func (b *timedBackend) Query(sql string) (*f2db.Result, error) {
	tk := b.tr.begin(b.layer, b.name+".query")
	res, err := b.inner.Query(sql)
	b.tr.end(tk)
	return res, err
}

func (b *timedBackend) Exec(sql string) error {
	tk := b.tr.begin(b.layer, b.name+".exec")
	err := b.inner.Exec(sql)
	b.tr.end(tk)
	return err
}

func (b *timedBackend) StatsText() string { return b.inner.StatsText() }

func (b *timedBackend) Counts() (uint64, uint64) { return b.inner.Counts() }

// engineBackend adapts an embedded engine to server.Backend, as
// server.New does internally.
type engineBackend struct{ db *f2db.DB }

func (e engineBackend) Query(sql string) (*f2db.Result, error) { return e.db.Query(sql) }
func (e engineBackend) Exec(sql string) error                  { return e.db.Exec(sql) }
func (e engineBackend) StatsText() string                      { return e.db.Metrics().String() }
func (e engineBackend) Counts() (uint64, uint64) {
	st := e.db.Stats()
	return uint64(st.Inserts), uint64(st.Batches)
}

// countingListener counts the bytes every accepted connection reads and
// writes — the wire layer's traffic, measured under the server.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

// served is one wire server running on a loopback port.
type served struct {
	srv  *server.Server
	ln   *countingListener
	done chan error
}

// serve starts a wire server for b on 127.0.0.1:0.
func serve(b server.Backend) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.NewBackend(b, server.Options{}), ln: &countingListener{Listener: ln}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	return s, nil
}

func (s *served) addr() string { return s.ln.Addr().String() }

// bytes is the total traffic through the server's listener.
func (s *served) bytes() int64 { return s.ln.read.Load() + s.ln.written.Load() }

// stop drains the server and waits for its accept loop to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedFS wraps the durable layer's filesystem, recording a span per
// fsync and per whole-file write (create through close: segment
// compactions and snapshots go through segment.WriteFileSync), with
// durations kept per kind for the per-layer metrics.
type timedFS struct {
	segment.FS
	tr *tracer

	fsyncs    atomic.Int64
	fsyncMS   sampleList
	compactMS sampleList
	snapMS    sampleList
}

func (f *timedFS) Create(name string) (segment.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	kind := ""
	switch {
	case strings.HasSuffix(name, ".seg.tmp"):
		kind = "segment.compaction_write"
	case strings.HasSuffix(name, "snapshot.db.tmp"):
		kind = "segment.snapshot_write"
	}
	tf := &timedFile{File: file, fs: f, kind: kind, start: time.Now()}
	if kind != "" {
		tf.tk = f.tr.begin(layerStorage, kind)
	}
	return tf, nil
}

func (f *timedFS) Append(name string) (segment.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	segment.File
	fs    *timedFS
	kind  string
	start time.Time
	tk    token
}

func (f *timedFile) Sync() error {
	t := time.Now()
	tk := f.fs.tr.begin(layerStorage, "segment.fsync")
	err := f.File.Sync()
	f.fs.tr.end(tk)
	f.fs.fsyncs.Add(1)
	f.fs.fsyncMS.add(ms(time.Since(t)))
	return err
}

func (f *timedFile) Close() error {
	err := f.File.Close()
	f.fs.tr.end(f.tk)
	switch f.kind {
	case "segment.compaction_write":
		f.fs.compactMS.add(ms(time.Since(f.start)))
	case "segment.snapshot_write":
		f.fs.snapMS.add(ms(time.Since(f.start)))
	}
	return err
}

// sampleList is a list of measurements safe for concurrent appends.
type sampleList struct {
	mu sync.Mutex
	xs []float64
}

func (l *sampleList) add(x float64) {
	l.mu.Lock()
	l.xs = append(l.xs, x)
	l.mu.Unlock()
}

// take returns the samples recorded so far and empties the list.
func (l *sampleList) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	xs := l.xs
	l.xs = nil
	return xs
}
