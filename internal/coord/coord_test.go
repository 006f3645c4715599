package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/cube"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/server"
	"cubefc/internal/timeseries"
	"cubefc/internal/wire"
)

// buildCube builds the twin-test cube (2 products × 4 cities → 2 regions,
// 36 seasonal points), runs the advisor, and returns the graph plus the
// snapshot bytes every replica and twin loads. The model configuration is
// frozen (Strategy Never) so forecasts are a pure function of series state
// and replicas agree bit-for-bit.
func buildCube(t testing.TB) (*cube.Graph, []byte) {
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
	g, err := cube.NewGraph(dims, base)
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
	return g, buf.Bytes()
}

// loadEngine loads a fresh replica engine from the snapshot bytes.
func loadEngine(t testing.TB, data []byte) *f2db.DB {
	t.Helper()
	db, err := f2db.LoadDatabase(bytes.NewReader(data), f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testShard is one in-process f2dbd replica. The engine is retained so
// tests can snapshot a shard mid-history (the trim regression restarts a
// shard from such a snapshot).
type testShard struct {
	addr string
	db   *f2db.DB
	srv  *server.Server
	done chan error
}

// startShardOn serves a fresh replica on addr ("127.0.0.1:0" picks a
// port; a concrete addr rebinds a restarted shard to its old one).
func startShardOn(t testing.TB, data []byte, addr string) *testShard {
	t.Helper()
	db := loadEngine(t, data)
	srv := server.New(db, server.Options{})
	var ln net.Listener
	var err error
	// A rebind can momentarily race the old listener's close.
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &testShard{addr: ln.Addr().String(), db: db, srv: srv, done: done}
}

// batchInsertSQL renders one full 8-row insert batch (a complete time
// advance for the twin-test cube) with values derived from v, so
// successive batches carry distinct observations.
func batchInsertSQL(v int) string {
	return fmt.Sprintf("INSERT INTO facts VALUES "+
		"('P1','C1',%d), ('P1','C2',%d), ('P1','C3',%d), ('P1','C4',%d), "+
		"('P2','C1',%d), ('P2','C2',%d), ('P2','C3',%d), ('P2','C4',%d)",
		v+1, v+2, v+3, v+4, v+5, v+6, v+7, v+8)
}

// stop shuts the shard down, abandoning its engine — the restart path
// loads a fresh replica from the snapshot, like a real process restart.
func (ts *testShard) stop(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shard shutdown: %v", err)
	}
	<-ts.done
}

// testClientOpts keeps reconnect probing fast under the race detector.
func testClientOpts() fclient.Options {
	return fclient.Options{
		PoolSize:      2,
		Retries:       1,
		BackoffBase:   2 * time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
		SickThreshold: 3,
		SickCooldown:  50 * time.Millisecond,
	}
}

func testCoordOpts(t testing.TB) Options {
	return Options{
		Client:         testClientOpts(),
		RecoverBackoff: 10 * time.Millisecond,
		QueryWait:      10 * time.Second,
		Logf:           t.Logf,
	}
}

// waitFor polls cond for up to 10s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameResult asserts two query results agree bit-for-bit.
func sameResult(t testing.TB, what string, got, want *f2db.Result) {
	t.Helper()
	if got.Forecast != want.Forecast || len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: shape differs: forecast %v/%v, %d/%d groups",
			what, got.Forecast, want.Forecast, len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		gg, wg := got.Groups[i], want.Groups[i]
		if gg.Node != wg.Node || gg.Member != wg.Member || len(gg.Rows) != len(wg.Rows) {
			t.Fatalf("%s: group %d differs: node %d/%d member %q/%q rows %d/%d",
				what, i, gg.Node, wg.Node, gg.Member, wg.Member, len(gg.Rows), len(wg.Rows))
		}
		for j := range wg.Rows {
			gr, wr := gg.Rows[j], wg.Rows[j]
			if gr.T != wr.T ||
				math.Float64bits(gr.Value) != math.Float64bits(wr.Value) ||
				math.Float64bits(gr.Lo) != math.Float64bits(wr.Lo) ||
				math.Float64bits(gr.Hi) != math.Float64bits(wr.Hi) {
				t.Fatalf("%s: group %d row %d differs: %+v vs %+v", what, i, j, gr, wr)
			}
		}
	}
}

// TestShardFor pins the shard map: in range, deterministic, and roughly
// uniform for a non-power-of-two shard count.
func TestShardFor(t *testing.T) {
	if ShardFor(123, 1) != 0 {
		t.Fatal("n=1 must map everything to shard 0")
	}
	for _, n := range []int{2, 3, 5, 8} {
		counts := make([]int, n)
		for id := 0; id < 9000; id++ {
			s := ShardFor(id, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardFor(%d, %d) = %d out of range", id, n, s)
			}
			if s != ShardFor(id, n) {
				t.Fatalf("ShardFor(%d, %d) unstable", id, n)
			}
			counts[s]++
		}
		want := 9000 / n
		for s, c := range counts {
			if c < want*7/10 || c > want*13/10 {
				t.Fatalf("n=%d: shard %d holds %d of 9000 (want ≈%d)", n, s, c, want)
			}
		}
	}
}

// TestRealign pins cursor realignment against statement boundaries.
func TestRealign(t *testing.T) {
	c := &Coordinator{log: []*logEntry{
		{rows: 4, cumRows: 4},
		{rows: 4, cumRows: 8},
		{rows: 8, cumRows: 16},
	}}
	for _, tc := range []struct {
		inserts uint64
		cursor  int
		ok      bool
	}{
		{0, 0, true},   // fresh restart: replay everything
		{4, 1, true},   // boundary after entry 0
		{8, 2, true},   // boundary after entry 1
		{16, 3, true},  // fully caught up
		{5, 0, false},  // inside entry 1: no valid boundary
		{20, 0, false}, // beyond the log: unknown history
	} {
		cur, ok := c.realignLocked(tc.inserts)
		if ok != tc.ok || (ok && cur != tc.cursor) {
			t.Fatalf("realign(%d) = (%d, %v), want (%d, %v)", tc.inserts, cur, ok, tc.cursor, tc.ok)
		}
	}

	// Trimmed log: the first two entries (through cumRows 8) are gone.
	// Valid boundaries are the trim horizon itself and each retained
	// entry's cumRows; anything behind the horizon is fenced.
	c = &Coordinator{
		trimBase: 2,
		trimRows: 8,
		log: []*logEntry{
			{rows: 8, cumRows: 16},
			{rows: 4, cumRows: 20},
		},
	}
	for _, tc := range []struct {
		inserts uint64
		cursor  int
		ok      bool
	}{
		{8, 2, true},   // exactly at the horizon: replay the retained tail
		{16, 3, true},  // retained boundary
		{20, 4, true},  // fully caught up
		{0, 0, false},  // behind the horizon: needed entries were trimmed
		{4, 0, false},  // behind the horizon, mid-trimmed-history
		{12, 0, false}, // inside a retained entry
		{24, 0, false}, // beyond the log
	} {
		cur, ok := c.realignLocked(tc.inserts)
		if ok != tc.ok || (ok && cur != tc.cursor) {
			t.Fatalf("trimmed realign(%d) = (%d, %v), want (%d, %v)", tc.inserts, cur, ok, tc.cursor, tc.ok)
		}
	}
}

// TestMetricsCollector smoke-checks the Prometheus rendering, including
// the log2 fan-out width bucketing.
func TestMetricsCollector(t *testing.T) {
	m := newMetrics([]string{"a:1", "b:2"})
	m.Queries.Add(3)
	m.Shards[1].Requests.Add(7)
	m.noteFanWidth(1)
	m.noteFanWidth(2)
	m.noteFanWidth(3) // → le="4"
	m.noteFanWidth(4) // → le="4"
	var buf bytes.Buffer
	m.Collector()(&buf)
	out := buf.String()
	for _, want := range []string{
		"coord_queries_total 3",
		`coord_shard_requests_total{shard="1",addr="b:2"} 7`,
		`coord_fanout_width{le="1"} 1`,
		`coord_fanout_width{le="2"} 1`,
		`coord_fanout_width{le="4"} 2`,
		"coord_shard0_latency_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("collector output missing %q:\n%s", want, out)
		}
	}
}

// TestCoordinatorServes: a 2-shard cluster answers single-node queries,
// drill-downs (scatter-gather), and inserts, all bit-exact against an
// in-process twin engine, and rejections carry the twin's exact text.
func TestCoordinatorServes(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	defer s1.stop(t)

	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// One full insert batch (time advance) through the coordinator and the
	// twin; the cluster must then forecast from the advanced state.
	ins := "INSERT INTO facts VALUES " +
		"('P1','C1',31), ('P1','C2',32), ('P1','C3',33), ('P1','C4',34), " +
		"('P2','C1',35), ('P2','C2',36), ('P2','C3',37), ('P2','C4',38)"
	if err := co.Exec(ins); err != nil {
		t.Fatalf("coordinator exec: %v", err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatalf("twin exec: %v", err)
	}
	waitFor(t, "replicas caught up", co.CaughtUp)

	for _, q := range []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C2'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city AS OF now() + '1 day' WITH INTERVAL 95",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, region AS OF now() + '3 steps'",
	} {
		got, err := co.Query(q)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", q, err)
		}
		want, err := twin.Query(q)
		if err != nil {
			t.Fatalf("%s: twin: %v", q, err)
		}
		sameResult(t, q, got, want)
	}

	// Rejections: the coordinator's planner and the shard engines share the
	// parser, so the texts match the twin's byte-for-byte.
	for _, q := range []string{
		"SELECT time, sales FROM facts WHERE planet = 'X'",
		"SELECT time, sales FROM facts WHERE city = 'C9'",
		"SELECT time, sales FROM facts AS OF now() + 'someday'",
	} {
		_, cerr := co.Query(q)
		_, terr := twin.Query(q)
		if cerr == nil || terr == nil || cerr.Error() != terr.Error() {
			t.Fatalf("%s: coordinator says %v, twin says %v", q, cerr, terr)
		}
	}
	if err := co.Exec("INSERT INTO facts VALUES ()"); err == nil {
		t.Fatal("malformed INSERT accepted")
	}

	if stats := co.StatsText(); !strings.Contains(stats, "servable=2") {
		t.Fatalf("StatsText: %q", stats)
	}
	if inserts, _ := co.Counts(); inserts != 8 {
		t.Fatalf("Counts: %d inserts, want 8", inserts)
	}
	if m := co.Metrics(); m.Fanouts.Load() == 0 || m.FanoutSubqueries.Load() == 0 {
		t.Fatal("scatter-gather metrics not recorded")
	}
}

// TestCoordinatorBackend: the coordinator served through the wire server
// (the f2dbd -coordinator deployment shape) answers fclient requests,
// including TInfo and TStats.
func TestCoordinatorBackend(t *testing.T) {
	g, data := buildCube(t)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	front := server.NewBackend(co, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- front.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = front.Shutdown(ctx)
		<-done
	}()

	cl, err := fclient.Dial(ln.Addr().String(), fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := cl.Query("SELECT time, SUM(sales) FROM facts GROUP BY time, region")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("expected 2 region groups, got %d", len(res.Groups))
	}
	info, err := cl.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Nonce == 0 {
		t.Fatal("front server reported zero nonce")
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(stats, "coordinator shards=1") {
		t.Fatalf("stats: %q", stats)
	}
}

// TestCoordinatorFailover: with one of two shards gone, every query still
// answers (from the surviving replica), inserts still apply, and the
// shard-state metrics reflect the outage.
func TestCoordinatorFailover(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)

	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	s1.stop(t) // outage

	ins := "INSERT INTO facts VALUES " +
		"('P1','C1',31), ('P1','C2',32), ('P1','C3',33), ('P1','C4',34), " +
		"('P2','C1',35), ('P2','C2',36), ('P2','C3',37), ('P2','C4',38)"
	if err := co.Exec(ins); err != nil {
		t.Fatalf("exec during outage: %v", err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatal(err)
	}

	// Query every node: shard 1's partition must fail over to shard 0.
	for id := 0; id < g.NumNodes(); id++ {
		got, err := co.Query(querySQLFor(g, id))
		if err != nil {
			t.Fatalf("node %d during outage: %v", id, err)
		}
		want, err := twin.Query(querySQLFor(g, id))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, querySQLFor(g, id), got, want)
	}
	waitFor(t, "down shard noticed", func() bool { return co.Metrics().ShardsDown.Load() == 1 })
	if co.Metrics().Failovers.Load() == 0 {
		t.Fatal("no failovers recorded despite a dead owner")
	}
	if stats := co.StatsText(); !strings.Contains(stats, "state=down") {
		t.Fatalf("StatsText does not show the outage: %q", stats)
	}
}

// querySQLFor renders a single-node forecast query for any graph node.
func querySQLFor(g *cube.Graph, id int) string {
	n := g.Node(id)
	sql := "SELECT time, SUM(sales) FROM facts"
	first := true
	for d, cell := range n.Coord {
		dim := &g.Dims[d]
		if cell.IsAll(dim) {
			continue
		}
		if first {
			sql += " WHERE "
			first = false
		} else {
			sql += " AND "
		}
		sql += dim.Levels[cell.Level] + " = '" + cell.Value + "'"
	}
	return sql + " AS OF now() + '1 steps'"
}

// TestCoordinatorExplainParity: EXPLAIN through the coordinator behaves
// exactly like EXPLAIN against a shard over a direct connection (both
// forward the statement verbatim; neither scatters it).
func TestCoordinatorExplainParity(t *testing.T) {
	g, data := buildCube(t)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	direct, err := fclient.Dial(s0.addr, fclient.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	const q = "EXPLAIN SELECT time, SUM(sales) FROM facts WHERE region = 'R1'"
	cres, cerr := co.Query(q)
	dres, derr := direct.Query(q)
	if (cerr == nil) != (derr == nil) {
		t.Fatalf("coordinator err %v, direct err %v", cerr, derr)
	}
	if cerr != nil {
		if !strings.Contains(cerr.Error(), wireErrText(derr)) && cerr.Error() != derr.Error() {
			t.Fatalf("coordinator says %q, direct says %q", cerr, derr)
		}
		return
	}
	if cres.Plan != dres.Plan {
		t.Fatalf("plans differ: %q vs %q", cres.Plan, dres.Plan)
	}
}

func wireErrText(err error) string {
	var se *wire.ServerError
	if errors.As(err, &se) {
		return se.Message
	}
	return err.Error()
}
