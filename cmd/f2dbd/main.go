// Command f2dbd is the F²DB network daemon: it loads a data set (or a
// saved database snapshot), runs or loads a model configuration, and
// serves forecast queries over the length-prefixed wire protocol
// (internal/wire) to fclient connections. A sidecar HTTP listener exposes
// engine and server metrics in Prometheus text format.
//
// Usage:
//
//	f2dbd -dataset tourism -addr :7071
//	f2dbd -db snapshot.f2db -addr :7071 -metrics :9090 -save snapshot.f2db
//	f2dbd -dataset tourism -wal-dir /var/lib/f2db -fsync always -compact-every 256
//	f2dbd -coordinator -shards host1:7071,host2:7071 -dataset tourism -addr :7070
//	f2dbd -dataset tourism -selftune -selftune-bucket 1s -selftune-season 60
//
// With -wal-dir the daemon is crash-durable: on boot it recovers the
// directory (snapshot, then columnar segments, then the WAL tail —
// discarding a torn final record), and while serving it group-commits
// every completed insert batch to the WAL before applying it. SIGTERM
// checkpoints the directory after the drain.
//
// In -coordinator mode the daemon holds no engine: it routes statements
// to the f2dbd shards listed in -shards (each serving a full replica of
// the same data set) over the same wire protocol it serves, so clients
// are indifferent to whether they talk to a shard or the coordinator.
// The data set (or snapshot) is still loaded — for its hyper graph, which
// the statement router resolves queries against. Repeated statements are
// answered from an epoch-invalidated result cache without touching the
// shards (-coord-cache-size, default 1024 statements; 0 disables it), and
// the replicated statement log is bounded (-log-retain).
//
// With -selftune the daemon runs the internal/sibyl self-forecasting
// engine over its own query stream: per-template arrival counts feed
// warm-started workload models whose predictions pre-warm caches before
// forecast spikes, schedule re-estimation and compaction into predicted
// troughs, and size the caches to the predicted working set. Works in
// both engine and coordinator mode; counters appear under sibyl_* on
// -metrics and on the \stats line. With -wal-dir, -checkpoint-every /
// -checkpoint-batches bound WAL replay length by checkpointing in the
// background.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, answers
// every in-flight request, optionally saves a snapshot (-save), and exits
// 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cubefc/internal/coord"
	"cubefc/internal/core"
	"cubefc/internal/experiments"
	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/server"
	"cubefc/internal/sibyl"
)

func main() {
	addr := flag.String("addr", ":7071", "wire-protocol listen address")
	metricsAddr := flag.String("metrics", "", "serve Prometheus-format metrics on this address (e.g. :9090)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -metrics listener")
	dataset := flag.String("dataset", "tourism", "data set: tourism, sales, energy, gen1k, gen10k, cubeN (synthetic cube with ~N nodes, e.g. cube100k)")
	configPath := flag.String("config", "", "load a saved configuration instead of running the advisor")
	dbPath := flag.String("db", "", "open a saved database snapshot instead of a data set")
	savePath := flag.String("save", "", "save a database snapshot to this path after draining")
	parallelism := flag.Int("parallelism", 0, "worker pool size for off-lock model re-estimation (0 = GOMAXPROCS)")
	eager := flag.Bool("eager-reestimate", false, "re-fit invalidated models right after the batch advance instead of lazily on first query")
	coldRefit := flag.Bool("cold-refit", false, "disable warm-started re-estimation (full cold parameter search on every re-fit)")
	walDir := flag.String("wal-dir", "", "durable directory (snapshot + write-ahead log + columnar segments); recovers on boot, then group-commits every completed batch")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy with -wal-dir: always, never, or an integer n (fsync every n batches)")
	compactEvery := flag.Int("compact-every", 256, "with -wal-dir: compact the sealed WAL span into a columnar segment every n batches (0 disables)")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent client connections (0 = default 256)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request processing timeout (0 = default 30s)")
	idleTimeout := flag.Duration("idle-timeout", 0, "idle connection timeout (0 = default 5m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline before in-flight connections are force-closed")
	coordinator := flag.Bool("coordinator", false, "route statements to the -shards cluster instead of serving a local engine")
	shardsFlag := flag.String("shards", "", "comma-separated f2dbd shard addresses (coordinator mode)")
	coordCacheSize := flag.Int("coord-cache-size", 1024, "coordinator mode: capacity in statements of the epoch-invalidated result cache and route memo (0 disables them)")
	coordLogRetain := flag.Int("log-retain", 0, "coordinator mode: statement-log entries retained for restart realignment (0 = default 4096, negative = unlimited)")
	selftune := flag.Bool("selftune", false, "run the self-forecasting engine: per-template workload prediction drives cache pre-warming, trough-scheduled maintenance, and adaptive cache sizing")
	selftuneBucket := flag.Duration("selftune-bucket", time.Second, "self-tuning arrival-count bucket width (and control-loop period)")
	selftuneHorizon := flag.Int("selftune-horizon", 1, "self-tuning forecast horizon in buckets")
	selftuneSeason := flag.Int("selftune-season", 0, "self-tuning seasonal period in buckets (0 = non-seasonal smoothing)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "with -wal-dir: background checkpoint after this much time, if batches were applied (0 disables)")
	checkpointBatches := flag.Int64("checkpoint-batches", 0, "with -wal-dir: background checkpoint every n applied batches (0 disables)")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "f2dbd: "+format+"\n", args...)
	}
	srvOpts := server.Options{
		MaxConns:       *maxConns,
		RequestTimeout: *reqTimeout,
		IdleTimeout:    *idleTimeout,
		Logf:           logf,
	}
	var sib *sibyl.Engine
	if *selftune {
		sib = sibyl.New(sibyl.Options{
			Bucket:  *selftuneBucket,
			Horizon: *selftuneHorizon,
			Season:  *selftuneSeason,
			Logf:    logf,
		})
		srvOpts.ExtraStats = sib.Metrics().StatsLine
	}

	var (
		db      *f2db.DB
		dur     *f2db.Durable
		ckpt    *f2db.CheckpointScheduler
		co      *coord.Coordinator
		srv     *server.Server
		metrics []f2db.Collector
		name    string
	)
	if (*checkpointEvery > 0 || *checkpointBatches > 0) && *walDir == "" {
		fail(fmt.Errorf("-checkpoint-every/-checkpoint-batches need -wal-dir"))
	}
	if *pprofFlag && *metricsAddr == "" {
		fail(fmt.Errorf("-pprof mounts on the metrics listener; set -metrics too"))
	}
	if *coordinator {
		if *shardsFlag == "" {
			fail(fmt.Errorf("-coordinator requires -shards"))
		}
		if *walDir != "" {
			fail(fmt.Errorf("-wal-dir needs a local engine; the shards own the data in coordinator mode"))
		}
		if *savePath != "" {
			fail(fmt.Errorf("-save needs a local engine; the shards own the data in coordinator mode"))
		}
		addrs := strings.Split(*shardsFlag, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		planner, gname, err := openPlanner(*dbPath, *dataset)
		if err != nil {
			fail(err)
		}
		co, err = coord.New(planner, addrs, coord.Options{
			CacheSize: *coordCacheSize,
			LogRetain: *coordLogRetain,
			Logf:      logf,
		})
		if err != nil {
			fail(err)
		}
		if sib != nil {
			attachCoordTuning(sib, co, *coordCacheSize)
		}
		srv = server.NewBackend(co, srvOpts)
		metrics = []f2db.Collector{co.Metrics().Collector(), srv.Metrics().Collector()}
		if sib != nil {
			metrics = append(metrics, sib.Metrics().WritePrometheus)
		}
		name = fmt.Sprintf("%s across %d shards", gname, len(addrs))
	} else {
		opts := f2db.Options{
			Strategy:        f2db.TimeBased{Every: 8},
			Parallelism:     *parallelism,
			EagerReestimate: *eager,
			ColdRefit:       *coldRefit,
		}
		if *walDir != "" {
			pol, err := segment.ParseSyncPolicy(*fsyncFlag)
			if err != nil {
				fail(err)
			}
			name = *walDir
			d, err := f2db.OpenDurable(
				f2db.DurableOptions{Dir: *walDir, Sync: pol, CompactEvery: *compactEvery},
				opts,
				func() (*f2db.DB, error) {
					fresh, n, err := openEngine(*dbPath, *dataset, *configPath, opts)
					if err == nil {
						name = fmt.Sprintf("%s (durable in %s)", n, *walDir)
					}
					return fresh, err
				})
			if err != nil {
				fail(err)
			}
			dur, db = d, d.DB()
			rec := d.Recovery
			if rec.FreshBuild {
				logf("durable dir %s initialized (snapshot at generation %d, fsync=%s)", *walDir, rec.SnapshotGen, pol)
			} else {
				logf("recovered %s: snapshot generation %d, %d segment + %d WAL batches replayed, %d torn bytes discarded",
					*walDir, rec.SnapshotGen, rec.SegmentBatches, rec.WALBatches, rec.TornBytes)
			}
		} else {
			var err error
			db, name, err = openEngine(*dbPath, *dataset, *configPath, opts)
			if err != nil {
				fail(err)
			}
		}
		if sib != nil {
			attachEngineTuning(sib, db, dur)
		}
		if dur != nil && (*checkpointEvery > 0 || *checkpointBatches > 0) {
			ckpt = f2db.NewCheckpointScheduler(dur, f2db.CheckpointPolicy{
				Every:        *checkpointEvery,
				EveryBatches: *checkpointBatches,
			}, logf)
			ckpt.Start()
		}
		srv = server.New(db, srvOpts)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	if co != nil {
		fmt.Printf("f2dbd: coordinating %s on %s\n", name, ln.Addr())
	} else {
		fmt.Printf("f2dbd: serving %s (%d nodes, %d models) on %s\n",
			name, db.Graph().NumNodes(), db.Configuration().NumModels(), ln.Addr())
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		if co != nil {
			f2db.MountCollectors(mux, metrics...)
		} else {
			extras := []f2db.Collector{srv.Metrics().Collector()}
			if sib != nil {
				extras = append(extras, sib.Metrics().WritePrometheus)
			}
			f2db.MountMetrics(mux, db, extras...)
		}
		if *pprofFlag {
			f2db.MountPprof(mux)
		}
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("f2dbd: metrics on http://%s/metrics\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "f2dbd: metrics server:", err)
			}
		}()
	}

	if sib != nil {
		sib.Start()
		fmt.Printf("f2dbd: self-tuning every %s (horizon %d, season %d)\n",
			sib.Bucket(), *selftuneHorizon, *selftuneSeason)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Printf("f2dbd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		drainErr := srv.Shutdown(ctx)
		cancel()
		if sib != nil {
			// Stop the control loop before closing the tiers it actuates on.
			sib.Stop()
		}
		if ckpt != nil {
			ckpt.Stop()
		}
		if co != nil {
			_ = co.Close()
		}
		if dur != nil {
			// Checkpoint after the drain: no request is in flight, so the
			// snapshot captures exactly the served state, and the next boot
			// starts from it with an empty WAL.
			if err := dur.Checkpoint(); err != nil {
				fail(fmt.Errorf("checkpoint: %w", err))
			}
			if err := dur.Close(); err != nil {
				fail(fmt.Errorf("closing WAL: %w", err))
			}
			fmt.Printf("f2dbd: checkpointed durable dir %s\n", *walDir)
		}
		if *savePath != "" {
			if err := f2db.WriteSnapshotFile(nil, *savePath, db); err != nil {
				fail(err)
			}
			fmt.Printf("f2dbd: database saved to %s\n", *savePath)
		}
		if drainErr != nil {
			fail(fmt.Errorf("drain deadline exceeded: %w", drainErr))
		}
		fmt.Println("f2dbd: drained cleanly")
	}
}

// openPlanner loads just the statement router the coordinator needs: a
// planner over a snapshot's graph when dbPath is set, the data set's
// otherwise. Shards must serve replicas of the same data set, or routing
// and results drift.
func openPlanner(dbPath, dataset string) (*f2db.Planner, string, error) {
	if dbPath != "" {
		fh, err := os.Open(dbPath)
		if err != nil {
			return nil, "", err
		}
		defer fh.Close()
		db, err := f2db.LoadDatabase(fh, f2db.Options{Strategy: f2db.Never{}})
		if err != nil {
			return nil, "", err
		}
		return db.Planner(), dbPath, nil
	}
	ds, err := experiments.LoadDataset(dataset, experiments.Quick)
	if err != nil {
		return nil, "", err
	}
	g, err := ds.Graph()
	if err != nil {
		return nil, "", err
	}
	return f2db.NewPlanner(g, 0), ds.Name, nil
}

// openEngine builds the engine the daemon serves: a snapshot restore when
// dbPath is set, otherwise a data set plus a loaded-or-advised
// configuration.
func openEngine(dbPath, dataset, configPath string, opts f2db.Options) (*f2db.DB, string, error) {
	if dbPath != "" {
		fh, err := os.Open(dbPath)
		if err != nil {
			return nil, "", err
		}
		defer fh.Close()
		db, err := f2db.LoadDatabase(fh, opts)
		if err != nil {
			return nil, "", err
		}
		return db, dbPath, nil
	}
	ds, err := experiments.LoadDataset(dataset, experiments.Quick)
	if err != nil {
		return nil, "", err
	}
	g, err := ds.Graph()
	if err != nil {
		return nil, "", err
	}
	var cfg *core.Configuration
	if configPath != "" {
		fh, err := os.Open(configPath)
		if err != nil {
			return nil, "", err
		}
		cfg, err = f2db.LoadConfiguration(fh, g)
		cerr := fh.Close()
		if err != nil {
			return nil, "", err
		}
		if cerr != nil {
			return nil, "", cerr
		}
	} else {
		fmt.Print("f2dbd: running advisor ... ")
		cfg, err = core.Run(g, core.Options{Seed: 42})
		if err != nil {
			return nil, "", err
		}
		fmt.Printf("done: error=%.4f models=%d\n", cfg.Error(), cfg.NumModels())
	}
	db, err := f2db.Open(g, cfg, opts)
	if err != nil {
		return nil, "", err
	}
	return db, ds.Name, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "f2dbd:", err)
	os.Exit(1)
}
