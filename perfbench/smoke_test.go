package main

import (
	"encoding/json"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the run is correct and that its JSON result carries every
// metric BENCHMARK.json names, with the unit it names. A metric of a layer
// the workload runs must rest on at least one sample; end-to-end metrics
// must be positive.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command implements %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, small: true, outDir: t.TempDir(), spec: sp}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct || res.failed > 0 || res.attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", name, trace, res.correct, res.attempted, res.failed, res.notes)
			}
			if len(res.empty) > 0 {
				t.Errorf("%s trace=%v: metrics with no samples: %v", name, trace, res.empty)
			}
			line, err := resultLine(cfg, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
