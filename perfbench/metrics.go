package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// NaN for an empty sample, which result.set reports.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or NaN (nothing measured) when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// resetPeakRSS returns free heap memory to the system and restarts the
// kernel's peak-resident-set count (VmHWM) from the current resident set,
// so peakRSSMB then reports the peak of what follows alone. Where the
// count cannot be reset, peakRSSMB reports the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set (VmHWM) in MiB; on systems
// without /proc it falls back to the Go runtime's mapped memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// metrics difference over a phase.
type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[2].Value.Float64Histogram()
	}
	return out
}

// setRuntime reports the runtime counters accumulated between two samples:
// GC cycles, the p99 stop-the-world pause of the cycles in between, and
// heap bytes allocated per operation.
func setRuntime(res *result, a, b runtimeSample, ops int64) {
	res.set("go.gc_cycles", float64(b.gcCycles-a.gcCycles))
	res.set("go.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), float64(ops)))
	res.set("go.gc_pause_p99_us", pauseQuantile(a.pauses, b.pauses, 0.99)*1e6)
}

// pauseQuantile is the q-quantile of the pauses recorded between two
// cumulative histogram snapshots (upper bucket bound, seconds); NaN when
// no pause was recorded.
func pauseQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return math.NaN()
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// stamp identifies the host and code a result came from: host name, CPU
// count, GOMAXPROCS, Go version, commit and seed. Outside a git work tree
// root the commit is "unknown" and source_sha256 (a digest of every Go source
// and go.mod under the repository root) identifies the code instead.
func stamp(cfg config) map[string]string {
	host, _ := os.Hostname()
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]string{
		"host":          host,
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"seed":          strconv.FormatInt(cfg.seed, 10),
		"workload":      cfg.workload,
		"seconds":       strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
	}
}

// sourceDigest hashes the path and contents of every .go and go.mod file
// under root, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(p))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
