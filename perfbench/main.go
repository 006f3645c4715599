// Command perfbench is the repository benchmark. It assembles the system
// in-process from the packages' public constructors — the advisor
// (core.NewAdvisor/Step), the engine (f2db.Open/OpenDurable), wire servers
// (server.NewBackend on 127.0.0.1:0), the cluster coordinator (coord.New)
// and the pipelining client (fclient.Dial) — and drives one of two
// workloads against it:
//
//	dashboard-coord  dashboard reads through the coordinator
//	ingest-durable   durable batch ingest with concurrent forecast reads
//
// Both run the advisor to completion in exact mode while setting up, as
// f2dbd does at boot; ingest-durable's is the 10,201-node cube10k.
//
// Every layer is measured from outside, by timing calls into its public
// surface: a timing server.Backend around the engine and the coordinator,
// a timing segment.FS under the durable engine, a byte-counting
// net.Listener under every server, and the Metrics() snapshots the packages
// already export.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload dashboard-coord --seed 1 --seconds 10 --trace 0
//
// Each phase of a run has a freshly set-up stack: an open loop at a fixed
// offered rate, a closed-loop capacity loop (the source of the gated
// query latency) and, on ingest-durable, a write-capacity loop.
// BENCHMARK.json, read from the current directory, names every metric and
// its unit. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 a further
// phase drives one connection in closed loop, recording spans for every
// insert and every other query, and the metrics are the per-layer ones.
// Spans are written to .bench_build/traces/ when the run ends. The process
// exits non-zero when a correctness gate fails or an operation errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config holds the command-line arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small selects tiny data sets and rates (the smoke test).
	small bool
	// outDir receives the durable directories and the span files.
	outDir string
	// spec is BENCHMARK.json: the metric names, units and split.
	spec *spec
}

// result is one run's outcome: the correctness verdict, operation counts,
// and every metric the workload measured, keyed by name.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	stamp     map[string]string
	notes     []string
	// empty lists metrics that were set from an empty sample (see set).
	empty []string
	units map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric under the unit BENCHMARK.json gives it; a name the
// file does not list is a programming error. A NaN value — a quantile or
// ratio of nothing — is recorded as 0 and listed in r.empty, so a layer
// that ran but measured nothing shows instead of reading as a real zero.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in BENCHMARK.json")
	}
	if math.IsNaN(v) {
		r.empty = append(r.empty, name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness-gate failure.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "GATE FAILED: "+fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the result and fails it on errors.
func (r *result) count(phase string, t tally) {
	r.attempted += t.ops
	if t.failed > 0 {
		r.failed += t.failed
		r.fail("%s: %d of %d operations failed, first: %v", phase, t.failed, t.ops, t.first)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// driver is one workload's run function and the per-layer metrics of the
// layers it does not run, which report 0 (a trailing "." names every
// metric of a layer).
type driver struct {
	run          func(cfg config, res *result, tr *tracer) error
	absentLayers []string
}

var workloads = map[string]driver{
	"dashboard-coord": {runDashboard, []string{"segment.", "peak_rows_s", "recover_s", "disk_bytes_per_value"}},
	"ingest-durable":  {runIngest, []string{"coord.", "history_p50_us"}},
}

// absent reports whether metric name belongs to a layer w does not run.
func (w driver) absent(name string) bool {
	for _, p := range w.absentLayers {
		if name == p || strings.HasSuffix(p, ".") && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: dashboard-coord or ingest-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced one-connection phase and reports the per-layer metrics")
	flag.BoolVar(&cfg.small, "small", false, "tiny data sets and rates (smoke mode)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.outDir = ".bench_build"

	var err error
	if cfg.spec, err = loadSpec("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct || res.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload and fills its result. The returned error is
// for failures that leave no result at all (set-up errors).
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	runDir, err := os.MkdirTemp(mustMkdir(cfg.outDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg.outDir = runDir

	// Flush earlier runs' writes (and their deletions) before measuring,
	// so their writeback does not land in this run's fsyncs.
	syncFilesystems()
	res := &result{correct: true, metrics: map[string]metric{}, stamp: stamp(cfg), units: cfg.spec.units()}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := w.run(cfg, res, tr); err != nil {
		return nil, err
	}
	if cfg.trace {
		path, err := tr.write(filepath.Join(filepath.Dir(runDir), "traces"), cfg.workload, cfg.seed, res.stamp)
		if err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s", tr.count(), path)
	}
	for _, n := range res.empty {
		res.note("no samples for %s", n)
	}
	return res, nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// printResult writes the human-readable report (stamp, notes, every
// measured metric with its unit) followed by the one-line JSON result.
func printResult(w io.Writer, cfg config, res *result) error {
	keys := make([]string, 0, len(res.stamp))
	for k := range res.stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %s\n", k, res.stamp[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", res.attempted, res.failed, res.correct)
	line, err := resultLine(cfg, res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// resultLine renders the JSON result: the end-to-end metrics untraced,
// the per-layer ones traced. A metric the workload should have measured
// but did not is an error; one of a layer it does not run reports 0.
func resultLine(cfg config, res *result) ([]byte, error) {
	want := cfg.spec.EndToEnd
	if cfg.trace {
		want = cfg.spec.PerLayer
	}
	w := workloads[cfg.workload]
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := res.metrics[m.Name]
		switch {
		case ok && w.absent(m.Name):
			return nil, fmt.Errorf("workload %s measured %s of a layer it lists as absent", cfg.workload, m.Name)
		case ok:
			out[m.Name] = got
		case w.absent(m.Name) && cfg.trace:
			out[m.Name] = metric{Value: 0, Unit: m.Unit}
		default:
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
}

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the command reads: the workloads and
// every metric's name and unit, split into end-to-end and per-layer.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// units maps every metric name to its unit.
func (s *spec) units() map[string]string {
	out := map[string]string{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		out[m.Name] = m.Unit
	}
	return out
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
