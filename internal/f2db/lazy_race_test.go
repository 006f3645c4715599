package f2db_test

// Race coverage for lazy node materialization inside the engine: readers
// force on-demand aggregate materialization through forecast queries while
// concurrent writers advance the cube through the shared write path. Part
// of the CI race-stress suite:
//
//	go test -race -run LazyMaterialization ./internal/f2db/

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cubefc/internal/core"
	"cubefc/internal/datasets"
	"cubefc/internal/f2db"
	"cubefc/internal/workload"
)

// TestLazyMaterializationRace opens an engine over a lazy graph
// whose advisor run (sampled) left most aggregates unmaterialized, then
// storms it: per round, 8 writers apply disjoint parts of one insert batch
// while 4 readers issue forecasts on random nodes, materializing them
// mid-advance. Afterwards every node's forecast must be bit-identical to
// an eager engine that applied the same batches sequentially
// — materialization timing must never leak into results.
func TestLazyMaterializationRace(t *testing.T) {
	const (
		rounds  = 4
		writers = 8
		readers = 4
	)
	d := datasets.GenCube(7, datasets.CubeGenOptions{
		DimCards: [][]int{{24, 5}, {8, 2}},
		Length:   24,
		Period:   4,
	})
	lg, err := d.LazyGraph()
	if err != nil {
		t.Fatal(err)
	}
	eg, err := d.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Sampled advisor with a pinned γ: deterministic, and its touch set is
	// a strict subset of the cube, so the storm below actually races
	// materialization (asserted before the storm starts).
	advOpts := core.Options{
		Seed:       7,
		SampleSize: 16,
		// Tight indicator budget so the advisor's touch set stays a strict
		// subset of this (deliberately small) cube.
		IndicatorEntries: 2_000,
		FixedGamma:       true,
		Gamma0:           0.5,
		MaxIterations:    4,
		Parallelism:      2,
	}
	lcfg, err := core.Run(lg, advOpts)
	if err != nil {
		t.Fatal(err)
	}
	ecfg, err := core.Run(eg, advOpts)
	if err != nil {
		t.Fatal(err)
	}
	ldb, err := f2db.Open(lg, lcfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := f2db.Open(eg, ecfg, f2db.Options{Strategy: f2db.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	if lg.MaterializedNodes() >= lg.NumNodes() {
		t.Fatalf("cube fully materialized before the storm (%d nodes); nothing left to race", lg.NumNodes())
	}

	// Deterministic batches, independent of engine state.
	rng := rand.New(rand.NewSource(99))
	batches := make([]map[int]float64, rounds)
	for r := range batches {
		b := make(map[int]float64, len(lg.BaseIDs))
		for _, id := range lg.BaseIDs {
			b[id] = 10 + 90*rng.Float64()
		}
		batches[r] = b
	}

	for r := 0; r < rounds; r++ {
		parts := workload.SplitBatch(batches[r], writers)
		var wg sync.WaitGroup
		werrs := make([]error, len(parts))
		for i, part := range parts {
			wg.Add(1)
			go func(i int, part map[int]float64) {
				defer wg.Done()
				werrs[i] = ldb.InsertBatch(part)
			}(i, part)
		}
		rerrs := make([]error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				qrng := rand.New(rand.NewSource(int64(r*readers + i)))
				for q := 0; q < 32; q++ {
					if _, err := ldb.ForecastNode(qrng.Intn(lg.NumNodes()), 2); err != nil {
						rerrs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range werrs {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, err := range rerrs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := edb.InsertBatch(batches[r]); err != nil {
			t.Fatal(err)
		}
	}

	for id := 0; id < lg.NumNodes(); id++ {
		lfc, err := ldb.ForecastNode(id, 3)
		if err != nil {
			t.Fatalf("lazy ForecastNode(%d): %v", id, err)
		}
		efc, err := edb.ForecastNode(id, 3)
		if err != nil {
			t.Fatalf("eager ForecastNode(%d): %v", id, err)
		}
		for h := range lfc {
			if math.Float64bits(lfc[h]) != math.Float64bits(efc[h]) {
				t.Fatalf("node %d horizon %d: lazy %v != eager %v", id, h, lfc[h], efc[h])
			}
		}
	}
}
