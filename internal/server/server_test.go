package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/timeseries"
	"cubefc/internal/wire"
	"cubefc/internal/workload"
)

// twinEngines builds a small 2-dimensional cube, runs the advisor once, and
// clones the engine through a snapshot into two independent instances: one
// served over the wire and one sequential reference. The model
// configuration is frozen (Strategy Never) so forecasts are a pure function
// of the series state both engines should agree on.
func twinEngines(t testing.TB) (served, twin *f2db.DB, g *cube.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	loc, err := cube.NewHierarchy("location", []string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cube.Dimension{cube.NewDimension("product", "product"), loc}
	var base []cube.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 30 + 20*rng.Float64()
			for i := range vals {
				season := 1 + 0.25*math.Sin(2*math.Pi*float64(i%4)/4)
				vals[i] = level * season * (1 + 0.05*rng.NormFloat64())
			}
			base = append(base, cube.BaseSeries{Members: []string{p, c}, Series: timeseries.New(vals, 4)})
		}
	}
	g, err = cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Run(g, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := f2db.Open(g, cfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f2db.SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	served, err = f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	twin, err = f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return served, twin, g
}

// startServer serves db on a loopback listener and returns the server, its
// address, and a cleanup-checked Serve exit channel.
func startServer(t testing.TB, db *f2db.DB, opts Options) (*Server, string, chan error) {
	t.Helper()
	srv := New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done
}

// shutdownClean drains the server and asserts both Shutdown and Serve
// report a clean close.
func shutdownClean(t *testing.T, srv *Server, done chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestServerBasic round-trips each request type once.
func TestServerBasic(t *testing.T) {
	db, _, g := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{})
	defer shutdownClean(t, srv, done)

	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	text, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !strings.Contains(text, "pending=") {
		t.Fatalf("Stats text %q lacks pending counter", text)
	}

	gen := workload.New(g, 1)
	res, err := cl.Query(gen.QuerySQL(g.TopID, 2))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Forecast || len(res.Rows) == 0 {
		t.Fatalf("forecast query returned %+v", res)
	}

	if err := cl.Exec("INSERT INTO facts VALUES ('P1', 'C1', 42.5)"); err != nil {
		t.Fatalf("Exec: %v", err)
	}

	// A broken statement surfaces as a typed server error, not a transport
	// failure, and must not kill the connection.
	_, err = cl.Query("SELECT nonsense")
	var se *wire.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("bad query returned %v, want CodeQuery ServerError", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after server error: %v", err)
	}
}

// TestServerStressTwinEquality is the acceptance stress: 64 concurrent
// fclient connections (8 writers splitting every insert batch, 56 readers
// free-running forecast queries) against the wire server, cross-checked
// against a sequential twin engine fed the same batches. Run with -race.
func TestServerStressTwinEquality(t *testing.T) {
	const (
		writerClients         = 8
		readerClients         = 56
		rounds                = 5
		queriesPerReaderRound = 3
	)
	served, twin, g := twinEngines(t)
	srv, addr, done := startServer(t, served, Options{})
	defer shutdownClean(t, srv, done)

	dial := func() *fclient.Client {
		cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	writers := make([]*fclient.Client, writerClients)
	for i := range writers {
		writers[i] = dial()
	}
	readers := make([]*fclient.Client, readerClients)
	for i := range readers {
		readers[i] = dial()
	}

	gen := workload.New(g, 7)
	qgen := workload.New(g, 11)
	numNodes := g.NumNodes()
	numBase := len(g.BaseIDs)

	for round := 0; round < rounds; round++ {
		batch := gen.NextBatch()
		parts := workload.SplitBatch(batch, writerClients)
		// Pre-render the round's SQL: the generator's rng is not safe for
		// concurrent use, and fixed statements keep the run reproducible.
		insertSQL := make([]string, len(parts))
		for i, part := range parts {
			insertSQL[i] = gen.InsertSQL(part)
		}
		readSQL := make([][]string, readerClients)
		for r := range readSQL {
			for j := 0; j < queriesPerReaderRound; j++ {
				readSQL[r] = append(readSQL[r], qgen.QuerySQL(qgen.RandomNode(), 1+j%3))
			}
		}

		errs := make([]error, writerClients+readerClients)
		var wg sync.WaitGroup
		for i := range insertSQL {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = writers[i].Exec(insertSQL[i])
			}(i)
		}
		for r := 0; r < readerClients; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for _, sql := range readSQL[r] {
					if _, err := readers[r].Query(sql); err != nil {
						errs[writerClients+r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}

		// Sequential reference: the same values as one local statement.
		if err := twin.Exec(gen.InsertSQL(batch)); err != nil {
			t.Fatalf("round %d: twin: %v", round, err)
		}
	}

	// Zero lost inserts: both engines absorbed every value and completed
	// every batch advance.
	ss, ts := served.Stats(), twin.Stats()
	if ss.Inserts != ts.Inserts || ss.Batches != ts.Batches || ss.PendingInserts != ts.PendingInserts {
		t.Fatalf("stats diverged:\nserved: %+v\ntwin:   %+v", ss, ts)
	}
	if ss.Inserts != rounds*numBase {
		t.Fatalf("served %d inserts, want %d", ss.Inserts, rounds*numBase)
	}

	// Byte-identical results, node by node: the full history (detects any
	// lost or misrouted value) and a 2-step forecast (detects model-state
	// divergence), both through the wire codec.
	cl0 := readers[0]
	for id := 0; id < numNodes; id++ {
		fsql := gen.QuerySQL(id, 2)
		hsql := fsql[:strings.Index(fsql, " AS OF")]
		for _, sql := range []string{hsql, fsql} {
			remote, err := cl0.Query(sql)
			if err != nil {
				t.Fatalf("node %d: remote %q: %v", id, sql, err)
			}
			local, err := twin.Query(sql)
			if err != nil {
				t.Fatalf("node %d: twin %q: %v", id, sql, err)
			}
			if len(remote.Rows) != len(local.Rows) {
				t.Fatalf("node %d: %q: %d rows != %d", id, sql, len(remote.Rows), len(local.Rows))
			}
			for i := range remote.Rows {
				a, b := remote.Rows[i], local.Rows[i]
				if a.T != b.T ||
					math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
					math.Float64bits(a.Lo) != math.Float64bits(b.Lo) ||
					math.Float64bits(a.Hi) != math.Float64bits(b.Hi) {
					t.Fatalf("node %d: %q row %d: %+v != %+v (not byte-identical)", id, sql, i, a, b)
				}
			}
		}
	}

	if got := srv.Metrics().ConnsAccepted.Load(); got < writerClients+readerClients {
		t.Errorf("ConnsAccepted = %d, want >= %d", got, writerClients+readerClients)
	}
	if got := srv.Metrics().Queries.Load(); got == 0 {
		t.Error("Queries counter never moved")
	}
}

// TestServerShutdownDrainsInFlight holds one request in-flight across a
// Shutdown and asserts the drain protocol answers it: Shutdown returns nil
// (clean drain), the client gets its response, and connections accepted
// after the drain began are refused with CodeShutdown.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	db, _, g := twinEngines(t)
	srv := New(db, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeHandle = func(tt wire.Type) {
		if tt == wire.TQuery {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	clq, err := fclient.Dial(addr, fclient.Options{PoolSize: 1, Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer clq.Close()

	gen := workload.New(g, 1)
	type qres struct {
		res *f2db.Result
		err error
	}
	resc := make(chan qres, 1)
	go func() {
		r, err := clq.Query(gen.QuerySQL(g.TopID, 1))
		resc <- qres{r, err}
	}()
	<-entered

	// Shutdown with the request still blocked in the hook: the drain must
	// wait for it.
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to begin, then verify the request has not
	// been abandoned and new connections are refused.
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-resc:
		t.Fatalf("in-flight query resolved before release: %+v", r)
	default:
	}
	if _, err := fclient.Dial(addr, fclient.Options{PoolSize: 1, Retries: 0}); err == nil {
		t.Fatal("dial during drain succeeded, want refusal")
	}

	close(release)
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight query failed across drain: %v", r.err)
	}
	if len(r.res.Rows) == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestServerRequestTimeout verifies the watchdog: a request stalled past
// RequestTimeout yields an in-order CodeTimeout error, and the connection
// keeps serving afterwards.
func TestServerRequestTimeout(t *testing.T) {
	db, _, g := twinEngines(t)
	srv := New(db, Options{RequestTimeout: 50 * time.Millisecond})
	var stalled atomic.Bool
	srv.testHookInProcess = func(tt wire.Type) {
		if tt == wire.TQuery && stalled.CompareAndSwap(false, true) {
			time.Sleep(250 * time.Millisecond)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer shutdownClean(t, srv, done)

	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := workload.New(g, 1)
	_, qerr := cl.Query(gen.QuerySQL(g.TopID, 1))
	var se *wire.ServerError
	if !errors.As(qerr, &se) || se.Code != wire.CodeTimeout {
		t.Fatalf("stalled query returned %v, want CodeTimeout ServerError", qerr)
	}
	if got := srv.Metrics().Timeouts.Load(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
	// The timeout answered in-order without poisoning the stream: the same
	// connection serves the next request.
	if _, err := cl.Query(gen.QuerySQL(g.TopID, 1)); err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
}

// TestClientRetryOnReconnect kills the server between two idempotent
// requests: the pooled connection dies, and the retry redials transparently.
// A non-idempotent Exec is retried only on provably-unsent failures (a dead
// connection detected before writing, a failed redial); with nothing
// listening every attempt fails that way, so the Exec below still surfaces
// a transport error rather than waiting for a server that is not there.
func TestClientRetryOnReconnect(t *testing.T) {
	db, _, g := twinEngines(t)
	srv1, addr, done1 := startServer(t, db, Options{})

	// Pin the listen address so the second server can reuse it.
	cl, err := fclient.Dial(addr, fclient.Options{PoolSize: 1, Retries: 1, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gen := workload.New(g, 1)
	if _, err := cl.Query(gen.QuerySQL(g.TopID, 1)); err != nil {
		t.Fatal(err)
	}

	shutdownClean(t, srv1, done1)

	// Exec on the now-dead connection: its failures (dead-conn check,
	// failed redial) are zero-bytes-sent and thus retryable, but the new
	// server only starts below — every attempt fails, and the error
	// surfaces as transport-level.
	execErr := cl.Exec("INSERT INTO facts VALUES ('P1', 'C1', 1.0)")
	if execErr == nil {
		t.Fatal("Exec over dead connection succeeded, want transport error")
	}
	if !fclient.IsRetryable(execErr) {
		t.Fatalf("Exec failure %v should be transport-level (retryable by caller policy)", execErr)
	}

	srv2 := New(db, Options{})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	defer shutdownClean(t, srv2, done2)

	// Idempotent query: first attempt hits the dead pooled conn, the retry
	// redials against the new server.
	if _, err := cl.Query(gen.QuerySQL(g.TopID, 1)); err != nil {
		t.Fatalf("query after reconnect: %v", err)
	}
}

// TestServerMaxConns verifies the accept gate: with MaxConns=1 a second
// connection waits in the backlog until the first closes, rather than
// being served concurrently.
func TestServerMaxConns(t *testing.T) {
	db, _, _ := twinEngines(t)
	srv, addr, done := startServer(t, db, Options{MaxConns: 1})
	defer shutdownClean(t, srv, done)

	c1, err := fclient.Dial(addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A second client's dial succeeds at TCP level (backlog) but its ping
	// cannot be served until the first connection is released.
	pinged := make(chan error, 1)
	go func() {
		c2, err := fclient.Dial(addr, fclient.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})
		if err == nil {
			defer c2.Close()
		}
		pinged <- err
	}()
	select {
	case err := <-pinged:
		t.Fatalf("second connection served while gate full (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-pinged:
		if err != nil {
			t.Fatalf("second connection after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never served after gate release")
	}
	if got := srv.Metrics().ConnsAccepted.Load(); got < 2 {
		t.Fatalf("ConnsAccepted = %d, want >= 2", got)
	}
}
