// Command f2dbcli is an interactive shell for the F²DB engine: it builds
// a data set, selects (or loads) a model configuration and answers
// forecast queries typed at the prompt — either against an in-process
// engine or, with -remote, against a running f2dbd daemon over the wire
// protocol.
//
// Usage:
//
//	f2dbcli -dataset tourism
//	f2dbcli -dataset gen1k -config config.f2db
//	f2dbcli -csv facts.csv -dims "product;location=city<region" -period 12
//	f2dbcli -dataset tourism -metrics :9090    # Prometheus text on /metrics
//	f2dbcli -remote localhost:7071             # REPL against a live f2dbd
//	f2dbcli -remote localhost:7071 -exec '\ping'
//	f2dbcli -dataset tourism -workload 10 -workload-queries 4
//	f2dbcli -dataset tourism -remote localhost:7071 -workload 10
//
// Queries:
//
//	SELECT time, SUM(m) FROM facts WHERE state = 'NSW' GROUP BY time AS OF now() + '2 steps'
//	EXPLAIN SELECT time, SUM(m) FROM facts WHERE purpose = 'holiday'
//	INSERT INTO facts VALUES ('holiday', 'NSW', 123.4)
//
// Meta commands: \stats, \models, \help, \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cubefc/internal/core"
	"cubefc/internal/csvload"
	"cubefc/internal/cube"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/segment"
	"cubefc/internal/sibyl"
	"cubefc/internal/workload"
)

// selftuneStats, when -selftune is on, renders the self-tuning counters
// appended to every local \stats (the remote shell gets the daemon's own
// line through server.Options.ExtraStats instead).
var selftuneStats func() string

func main() {
	dataset := flag.String("dataset", "tourism", "data set: tourism, sales, energy, gen1k, gen10k, cubeN (synthetic cube with ~N nodes, e.g. cube100k)")
	configPath := flag.String("config", "", "load a saved configuration instead of running the advisor")
	dbPath := flag.String("db", "", "open a saved database snapshot (see \\save)")
	csvPath := flag.String("csv", "", "load a fact-table CSV instead of a built-in data set")
	dimSpec := flag.String("dims", "", "dimension spec for -csv, e.g. \"product;location=city<region\"")
	period := flag.Int("period", 1, "seasonal period for -csv data")
	metricsAddr := flag.String("metrics", "", "serve Prometheus-format engine metrics on this address (e.g. :9090)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics listener")
	sampleSize := flag.Int("sample-size", 0, "advisor: estimate indicators and derivations from this many sampled base series per node (0 = exact)")
	exactMode := flag.Bool("exact", false, "advisor: force exact computation even when -sample-size is set")
	lazy := flag.Bool("lazy", false, "build the cube with on-demand node materialization (large cubes)")
	parallelism := flag.Int("parallelism", 0, "worker pool size for off-lock model re-estimation (0 = GOMAXPROCS)")
	eager := flag.Bool("eager-reestimate", false, "re-fit invalidated models right after the batch advance instead of lazily on first query")
	coldRefit := flag.Bool("cold-refit", false, "disable warm-started re-estimation (full cold parameter search on every re-fit)")
	walDir := flag.String("wal-dir", "", "durable directory (snapshot + write-ahead log + columnar segments); recovers on open, then group-commits every completed batch")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy with -wal-dir: always, never, or an integer n (fsync every n batches)")
	compactEvery := flag.Int("compact-every", 256, "with -wal-dir: compact the sealed WAL span into a columnar segment every n batches (0 disables)")
	remote := flag.String("remote", "", "connect to a running f2dbd at this address instead of opening a local engine")
	execStmt := flag.String("exec", "", "execute one statement (SQL, \\ping, \\stats, \\info or \\save PATH) and exit")
	wlPoints := flag.Int("workload", 0, "run the interleaved insert/query workload for this many time points instead of the REPL")
	wlQueries := flag.Int("workload-queries", 4, "workload: forecast queries per insert")
	wlHorizon := flag.Int("workload-horizon", 1, "workload: forecast horizon in steps")
	wlWriters := flag.Int("workload-writers", 1, "workload: concurrent insert streams (with -remote: writer connections)")
	wlReaders := flag.Int("workload-readers", 1, "workload: reader connections (-remote only)")
	wlSeed := flag.Int64("workload-seed", 1, "workload: generator seed")
	wlHot := flag.Int("workload-hot", 0, "workload: draw queries from a fixed hot set of this many statements (0 = all-random; exercises result caches)")
	wlHotFrac := flag.Float64("workload-hot-frac", 0.9, "workload: fraction of queries drawn from the hot set (with -workload-hot)")
	wlPhases := flag.Int("workload-phases", 0, "workload: split the hot set into this many time-varying phases, cycling one per time point (with -workload-hot; 0 = flat mix)")
	selftune := flag.Bool("selftune", false, "local engine only: run the self-forecasting engine (cache pre-warming, trough maintenance, adaptive cache sizing); counters on \\stats and -metrics")
	selftuneBucket := flag.Duration("selftune-bucket", time.Second, "self-tuning arrival-count bucket width (and control-loop period)")
	selftuneHorizon := flag.Int("selftune-horizon", 1, "self-tuning forecast horizon in buckets")
	selftuneSeason := flag.Int("selftune-season", 0, "self-tuning seasonal period in buckets (0 = non-seasonal smoothing)")
	flag.Parse()
	if *pprofFlag && *metricsAddr == "" {
		fail(fmt.Errorf("-pprof mounts on the metrics listener; set -metrics too"))
	}
	engineOpts := func() f2db.Options {
		return f2db.Options{
			Strategy:        f2db.TimeBased{Every: 8},
			Parallelism:     *parallelism,
			EagerReestimate: *eager,
			ColdRefit:       *coldRefit,
		}
	}

	// Remote one-shot / REPL: no local engine at all.
	if *remote != "" && *wlPoints == 0 {
		cl, err := fclient.Dial(*remote, fclient.Options{})
		if err != nil {
			fail(err)
		}
		defer cl.Close()
		if *execStmt != "" {
			if err := remoteStmt(cl, *execStmt); err != nil {
				fail(err)
			}
			return
		}
		remoteRepl(cl, *remote)
		return
	}

	// Remote workload: the local side only needs the graph, to render the
	// same SQL the daemon's data set understands.
	if *remote != "" {
		g, _, err := buildGraph(*dataset, *csvPath, *dimSpec, *period, *lazy)
		if err != nil {
			fail(err)
		}
		gen := workload.New(g, *wlSeed)
		res, err := workload.Run(nil, gen, workload.Options{
			TimePoints:       *wlPoints,
			QueriesPerInsert: *wlQueries,
			Horizon:          *wlHorizon,
			InsertWriters:    *wlWriters,
			HotQueries:       *wlHot,
			HotFraction:      *wlHotFrac,
			Phases:           *wlPhases,
			RemoteAddr:       *remote,
			RemoteReaders:    *wlReaders,
		})
		if err != nil {
			fail(err)
		}
		printWorkload(res)
		return
	}

	var db *f2db.DB
	var g *cube.Graph
	var dur *f2db.Durable
	name := *dataset
	// openLocal builds the in-process engine from -db / -csv / -dataset,
	// setting g and name as it learns them. It doubles as OpenDurable's
	// build function: with -wal-dir it only runs when the durable directory
	// holds no snapshot yet.
	openLocal := func() (*f2db.DB, error) {
		if *dbPath != "" {
			fh, err := os.Open(*dbPath)
			if err != nil {
				return nil, err
			}
			d, err := f2db.LoadDatabase(fh, engineOpts())
			cerr := fh.Close()
			if err != nil {
				return nil, err
			}
			if cerr != nil {
				return nil, cerr
			}
			fmt.Printf("opened %s: %d nodes, %d models\n", *dbPath, d.Graph().NumNodes(), d.Configuration().NumModels())
			name = *dbPath
			return d, nil
		}
		gg, gname, err := buildGraph(*dataset, *csvPath, *dimSpec, *period, *lazy)
		if err != nil {
			return nil, err
		}
		g, name = gg, gname
		var cfg *core.Configuration
		if *configPath != "" {
			fh, err := os.Open(*configPath)
			if err != nil {
				return nil, err
			}
			cfg, err = f2db.LoadConfiguration(fh, g)
			cerr := fh.Close()
			if err != nil {
				return nil, err
			}
			if cerr != nil {
				return nil, cerr
			}
			fmt.Printf("loaded configuration: %d models\n", cfg.NumModels())
		} else {
			fmt.Print("running advisor ... ")
			c, err := core.Run(g, core.Options{Seed: 42, SampleSize: *sampleSize, Exact: *exactMode})
			if err != nil {
				return nil, err
			}
			cfg = c
			fmt.Printf("done: error=%.4f models=%d\n", cfg.Error(), cfg.NumModels())
		}
		return f2db.Open(g, cfg, engineOpts())
	}
	if *walDir != "" {
		pol, err := segment.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			fail(err)
		}
		d, err := f2db.OpenDurable(
			f2db.DurableOptions{Dir: *walDir, Sync: pol, CompactEvery: *compactEvery},
			engineOpts(), openLocal)
		if err != nil {
			fail(err)
		}
		dur, db = d, d.DB()
		rec := d.Recovery
		if rec.FreshBuild {
			fmt.Printf("durable dir %s initialized (snapshot at generation %d, fsync=%s)\n", *walDir, rec.SnapshotGen, pol)
		} else {
			name = *walDir
			fmt.Printf("recovered %s: snapshot generation %d, %d segment + %d WAL batches replayed, %d torn bytes discarded\n",
				*walDir, rec.SnapshotGen, rec.SegmentBatches, rec.WALBatches, rec.TornBytes)
		}
		// On any clean exit, checkpoint so the next open starts from a
		// snapshot instead of replaying the session's whole WAL.
		defer func() {
			if err := dur.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "f2dbcli: checkpoint:", err)
				return
			}
			if err := dur.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "f2dbcli: closing WAL:", err)
			}
		}()
	} else {
		d, err := openLocal()
		if err != nil {
			fail(err)
		}
		db = d
	}
	var sibCollectors []f2db.Collector
	if *selftune {
		sib := sibyl.New(sibyl.Options{
			Bucket:  *selftuneBucket,
			Horizon: *selftuneHorizon,
			Season:  *selftuneSeason,
		})
		db.SetTelemetry(sib)
		sib.Attach(
			&sibyl.Prewarm{Run: func(sql string) error {
				_, err := db.Query(sql)
				return err
			}},
			&sibyl.TroughWork{Run: func() {
				db.ReestimateInvalid()
				if dur != nil {
					_ = dur.Compact()
				}
			}},
			&sibyl.CacheSizer{
				Name:    "plan-cache",
				Apply:   func(n int) { db.SetPlanCacheCapacity(n) },
				Min:     64,
				Max:     64 << 10,
				Current: 256,
			},
			&sibyl.CacheSizer{
				Name:        "forecast-cache",
				Apply:       func(n int) { db.SetForecastCacheCapacity(n) },
				Min:         256,
				Max:         1 << 20,
				PerTemplate: 8,
				Current:     4096,
			},
		)
		selftuneStats = sib.Metrics().StatsLine
		sibCollectors = append(sibCollectors, sib.Metrics().WritePrometheus)
		sib.Start()
		defer sib.Stop()
	}
	serveMetrics(db, *metricsAddr, *pprofFlag, sibCollectors...)
	if *wlPoints > 0 {
		if g == nil {
			fail(fmt.Errorf("-workload needs a data set graph; it does not run against a -db snapshot"))
		}
		gen := workload.New(g, *wlSeed)
		res, err := workload.Run(db, gen, workload.Options{
			TimePoints:       *wlPoints,
			QueriesPerInsert: *wlQueries,
			Horizon:          *wlHorizon,
			InsertWriters:    *wlWriters,
			HotQueries:       *wlHot,
			HotFraction:      *wlHotFrac,
			Phases:           *wlPhases,
			UseSQL:           true,
		})
		if err != nil {
			fail(err)
		}
		printWorkload(res)
		return
	}
	if *execStmt != "" {
		if err := localStmt(db, *execStmt); err != nil {
			fail(err)
		}
		return
	}
	repl(db, name)
}

// buildGraph constructs the data cube from a CSV fact table or a built-in
// data set, eagerly or with on-demand node materialization (-lazy).
func buildGraph(dataset, csvPath, dimSpec string, period int, lazy bool) (*cube.Graph, string, error) {
	if csvPath != "" {
		specs, err := csvload.ParseSpec(dimSpec)
		if err != nil {
			return nil, "", err
		}
		fh, err := os.Open(csvPath)
		if err != nil {
			return nil, "", err
		}
		dims, base, err := csvload.Load(fh, specs, csvload.Options{Period: period})
		cerr := fh.Close()
		if err != nil {
			return nil, "", err
		}
		if cerr != nil {
			return nil, "", cerr
		}
		newGraph := cube.NewGraph
		if lazy {
			newGraph = cube.NewLazyGraph
		}
		g, err := newGraph(dims, base)
		if err != nil {
			return nil, "", err
		}
		return g, csvPath, nil
	}
	ds, err := experiments.LoadDataset(dataset, experiments.Quick)
	if err != nil {
		return nil, "", err
	}
	var g *cube.Graph
	if lazy {
		g, err = ds.LazyGraph()
	} else {
		g, err = ds.Graph()
	}
	if err != nil {
		return nil, "", err
	}
	return g, ds.Name, nil
}

// serveMetrics exposes the engine counters on addr/metrics in Prometheus
// text format (no-op when addr is empty). Mounting goes through
// f2db.MountMetrics — the same helper f2dbd uses — so the endpoint cannot
// drift between the two binaries. The endpoint is lock-free; it never
// interferes with the interactive session.
func serveMetrics(db *f2db.DB, addr string, withPprof bool, extra ...f2db.Collector) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	f2db.MountMetrics(mux, db, extra...)
	if withPprof {
		f2db.MountPprof(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("serving metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "f2dbcli: metrics server:", err)
		}
	}()
}

// printWorkload reports a workload run.
func printWorkload(res workload.RunResult) {
	fmt.Printf("workload: %d inserts, %d queries in %v (avg query %v)\n",
		res.Inserts, res.Queries, res.TotalTime.Round(0), res.AvgQueryTime)
	if res.QueryTime > 0 || res.MaintainTime > 0 {
		fmt.Printf("engine: query=%v maintain=%v reestimations=%d (%v engine time/query)\n",
			res.QueryTime, res.MaintainTime, res.Reestimations, res.EngineTimePerQuery())
	}
}

// localStmt executes one statement against the in-process engine.
func localStmt(db *f2db.DB, stmt string) error {
	switch {
	case stmt == `\ping`:
		fmt.Println("pong")
		return nil
	case stmt == `\stats`:
		fmt.Printf("pending=%d invalid=%d\n", db.Stats().PendingInserts, db.InvalidCount())
		fmt.Print(db.Metrics())
		if selftuneStats != nil {
			fmt.Print(selftuneStats())
		}
		return nil
	case strings.HasPrefix(stmt, `\save `):
		path := strings.TrimSpace(strings.TrimPrefix(stmt, `\save `))
		if err := f2db.WriteSnapshotFile(nil, path, db); err != nil {
			return err
		}
		fmt.Printf("database saved to %s (reopen with -db %s)\n", path, path)
		return nil
	case strings.HasPrefix(strings.ToLower(stmt), "insert"):
		if err := db.Exec(stmt); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	default:
		res, err := db.Query(stmt)
		if err != nil {
			return err
		}
		printResult(res)
		return nil
	}
}

// remoteStmt executes one statement against a live f2dbd.
func remoteStmt(cl *fclient.Client, stmt string) error {
	switch {
	case stmt == `\ping`:
		if err := cl.Ping(); err != nil {
			return err
		}
		fmt.Println("pong")
		return nil
	case stmt == `\stats`:
		text, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case stmt == `\info`:
		info, err := cl.Info()
		if err != nil {
			return err
		}
		fmt.Printf("nonce=%016x inserts=%d batches=%d\n", info.Nonce, info.Inserts, info.Batches)
		return nil
	case strings.HasPrefix(strings.ToLower(stmt), "insert"):
		if err := cl.Exec(stmt); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	default:
		res, err := cl.Query(stmt)
		if err != nil {
			return err
		}
		printResult(res)
		return nil
	}
}

// remoteRepl runs the interactive loop against a live f2dbd.
func remoteRepl(cl *fclient.Client, addr string) {
	fmt.Printf("F²DB shell over f2dbd at %s. Type \\help for help.\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("f2db> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			printHelp()
		default:
			if err := remoteStmt(cl, line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// repl runs the interactive query loop.
func repl(db *f2db.DB, name string) {
	fmt.Printf("F²DB shell over %s (%d nodes). Type \\help for help.\n", name, db.Graph().NumNodes())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("f2db> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			printHelp()
		case line == `\stats`:
			fmt.Printf("pending=%d invalid=%d\n", db.Stats().PendingInserts, db.InvalidCount())
			fmt.Print(db.Metrics())
			if selftuneStats != nil {
				fmt.Print(selftuneStats())
			}
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := f2db.WriteSnapshotFile(nil, path, db); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("database saved to %s (reopen with -db %s)\n", path, path)
		case line == `\models`:
			cfgView := db.Configuration()
			gView := db.Graph()
			for _, id := range cfgView.ModelIDs() {
				fmt.Printf("  %-40s %s\n", gView.NodeKey(id), cfgView.ModelFamily(id))
			}
		case line == `\health`:
			keys := make([]string, 0)
			health := db.Health()
			for k := range health {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h := health[k]
				marker := ""
				if h.Invalid {
					marker = "  INVALID"
				}
				fmt.Printf("  %-40s %-8s updates=%-4d rolling-err=%.4f%s\n",
					k, h.Family, h.UpdatesSinceFit, h.RollingError, marker)
			}
		case strings.HasPrefix(strings.ToLower(line), "insert"):
			if err := db.Exec(line); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		default:
			res, err := db.Query(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printResult(res)
		}
	}
}

// printResult renders one query result, shared by the local and remote
// paths.
func printResult(res *f2db.Result) {
	if res.Plan != "" {
		fmt.Printf("node %s: %s\n", res.NodeKey, res.Plan)
	}
	for _, grp := range res.Groups {
		rows := grp.Rows
		if len(res.Groups) > 1 {
			fmt.Printf("%s:\n", grp.NodeKey)
		}
		if len(rows) > 12 {
			fmt.Printf("  (%d rows, last 12)\n", len(rows))
			rows = rows[len(rows)-12:]
		}
		for _, r := range rows {
			marker := ""
			if res.Forecast {
				marker = " (forecast)"
			}
			if r.Lo != 0 || r.Hi != 0 {
				fmt.Printf("  t=%-6d %12.4f  [%.4f, %.4f]%s\n", r.T, r.Value, r.Lo, r.Hi, marker)
			} else {
				fmt.Printf("  t=%-6d %12.4f%s\n", r.T, r.Value, marker)
			}
		}
	}
}

func printHelp() {
	fmt.Print(`queries:
  SELECT time, SUM(m)|AVG(m) FROM facts [WHERE <level> = '<member>' [AND ...]]
         [GROUP BY time[, <level>]] [AS OF now() + '<n> <unit>']
         [WITH INTERVAL <percent>]
  GROUP BY a hierarchy level (e.g. city) drills down: one series per member.
  WITH INTERVAL 95 adds prediction-interval bounds to forecast rows.
  EXPLAIN SELECT ...            show the derivation scheme of the node
  INSERT INTO facts VALUES ('<member>', ..., <value>)[, (...), ...]
  Multi-row INSERTs take the batched write path (one lock per statement).
meta:
  \stats   engine counters      \models      list models
  \health  model maintenance    \save F      snapshot database
  \help    this help            \quit        exit
  (remote shells support \stats, \ping and \info — the server's process
  nonce and applied insert/batch counters; \save runs on the daemon side
  via f2dbd -save)
`)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "f2dbcli:", err)
	os.Exit(1)
}
