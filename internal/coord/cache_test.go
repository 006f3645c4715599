package coord

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cubefc/internal/f2db"
)

// TestNormalizeSQLSharedKeying proves both tiers key their caches with the
// one exported f2db.NormalizeSQL: statements differing only in whitespace
// collapse to a single plan-cache entry in the engine AND a single
// result-cache entry in the coordinator, so the tiers can never disagree
// about which statements are "the same".
func TestNormalizeSQLSharedKeying(t *testing.T) {
	const canon = "SELECT time, SUM(sales) FROM facts WHERE region = 'R1'"
	const messy = "  SELECT\ttime,  SUM(sales)\nFROM facts   WHERE region = 'R1' "
	if f2db.NormalizeSQL(canon) != f2db.NormalizeSQL(messy) {
		t.Fatalf("NormalizeSQL does not collapse whitespace variants:\n%q\n%q",
			f2db.NormalizeSQL(canon), f2db.NormalizeSQL(messy))
	}

	g, data := buildCube(t)

	// Engine tier: the second variant must hit the plan cache.
	db := loadEngine(t, data)
	if _, err := db.Query(canon); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(messy); err != nil {
		t.Fatal(err)
	}
	em := db.Metrics()
	if em.PlanCacheMisses != 1 || em.PlanCacheHits != 1 {
		t.Fatalf("engine plan cache: %d misses, %d hits; want 1 and 1",
			em.PlanCacheMisses, em.PlanCacheHits)
	}

	// Coordinator tier: the second variant must hit the result cache.
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 16
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.Query(canon); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Query(messy); err != nil {
		t.Fatal(err)
	}
	m := co.Metrics()
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("coordinator result cache: %d misses, %d hits; want 1 and 1",
			m.CacheMisses.Load(), m.CacheHits.Load())
	}
	if m.RouteMemoHits.Load() != 1 {
		t.Fatalf("route memo hits = %d, want 1", m.RouteMemoHits.Load())
	}
	if co.cache.len() != 1 {
		t.Fatalf("result cache holds %d entries, want 1", co.cache.len())
	}
}

// TestReadCacheResultLRU pins the result-cache state machine in isolation:
// miss/fill/hit, epoch invalidation, error pass-through, and LRU eviction
// at capacity.
func TestReadCacheResultLRU(t *testing.T) {
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(2, &epochs{global: &epoch}, m)
	fetch := func(r *f2db.Result) func() (*f2db.Result, error) {
		return func() (*f2db.Result, error) { return r, nil }
	}
	forbidden := func() (*f2db.Result, error) {
		t.Fatal("fetch ran on what must be a cache hit")
		return nil, nil
	}
	ra := &f2db.Result{Plan: "a"}

	if got, _ := rc.result("a", nil, fetch(ra)); got != ra {
		t.Fatal("miss did not return the fetched result")
	}
	if got, _ := rc.result("a", nil, forbidden); got != ra {
		t.Fatal("hit did not return the cached result")
	}
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", m.CacheMisses.Load(), m.CacheHits.Load())
	}

	// A write bumps the epoch: the entry is stale, dropped lazily, and the
	// key refetches.
	epoch.Add(1)
	ra2 := &f2db.Result{Plan: "a2"}
	if got, _ := rc.result("a", nil, fetch(ra2)); got != ra2 {
		t.Fatal("stale entry served after epoch bump")
	}
	if m.CacheInvalidations.Load() != 1 {
		t.Fatalf("invalidations = %d, want 1", m.CacheInvalidations.Load())
	}
	if got, _ := rc.result("a", nil, forbidden); got != ra2 {
		t.Fatal("refilled entry not served at the new epoch")
	}

	// Errors pass through uncached.
	boom := errors.New("boom")
	if _, err := rc.result("e", nil, func() (*f2db.Result, error) { return nil, boom }); err != boom {
		t.Fatalf("fetch error not returned: %v", err)
	}
	if got, _ := rc.result("e", nil, fetch(ra)); got != ra {
		t.Fatal("error was cached; refetch did not run")
	}

	// Capacity 2 with {a, e} resident: filling a third key evicts the LRU
	// tail (a — e was used more recently).
	if _, err := rc.result("c", nil, fetch(&f2db.Result{Plan: "c"})); err != nil {
		t.Fatal(err)
	}
	if m.CacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", m.CacheEvictions.Load())
	}
	if got, _ := rc.result("a", nil, fetch(ra)); got != ra {
		t.Fatal("evicted key did not refetch")
	}
	if rc.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", rc.len())
	}
}

// TestReadCacheRouteMemo pins the route memo: one plan per statement key,
// pointer-identical on repeat, with planning errors never memoized.
func TestReadCacheRouteMemo(t *testing.T) {
	g, _ := buildCube(t)
	p := f2db.NewPlanner(g, 0)
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epochs{global: &epoch}, m)

	const sql = "SELECT time, SUM(sales) FROM facts GROUP BY time, region"
	key := f2db.NormalizeSQL(sql)
	r1, _, err := rc.routeFor(key, sql, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := rc.routeFor(key, sql, p)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized route is not pointer-identical")
	}
	if m.RouteMemoHits.Load() != 1 {
		t.Fatalf("route memo hits = %d, want 1", m.RouteMemoHits.Load())
	}

	const bad = "SELECT time, sales FROM facts WHERE planet = 'X'"
	for i := 0; i < 2; i++ {
		if _, _, err := rc.routeFor(f2db.NormalizeSQL(bad), bad, p); err == nil {
			t.Fatal("invalid statement routed")
		}
	}
	if m.RouteMemoHits.Load() != 1 {
		t.Fatal("planning error was memoized")
	}
}

// TestReadCacheCoalesce: concurrent identical statements at one epoch
// share a single fetch — the waiters never fan out themselves.
func TestReadCacheCoalesce(t *testing.T) {
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epochs{global: &epoch}, m)
	res := &f2db.Result{Plan: "x"}
	release := make(chan struct{})
	var fetches atomic.Int64

	leaderGot := make(chan *f2db.Result, 1)
	go func() {
		r, _ := rc.result("k", nil, func() (*f2db.Result, error) {
			fetches.Add(1)
			<-release
			return res, nil
		})
		leaderGot <- r
	}()
	waitFor(t, "flight registered", func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		_, ok := rc.flights["k"]
		return ok
	})

	const waiters = 8
	var wg sync.WaitGroup
	got := make([]*f2db.Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A nil-safe fetch that must never run: the waiters join the
			// leader's flight instead.
			got[i], _ = rc.result("k", nil, func() (*f2db.Result, error) {
				t.Error("waiter fanned out instead of coalescing")
				return nil, nil
			})
		}(i)
	}
	waitFor(t, "waiters coalesced", func() bool { return m.CacheCoalesced.Load() == waiters })
	close(release)
	wg.Wait()
	if r := <-leaderGot; r != res {
		t.Fatal("leader returned wrong result")
	}
	for i := range got {
		if got[i] != res {
			t.Fatalf("waiter %d got a different result", i)
		}
	}
	if fetches.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Fatalf("fetches=%d misses=%d, want 1 and 1", fetches.Load(), m.CacheMisses.Load())
	}
}

// TestReadCacheStaleFlightRetry: a write that lands while a fan-out is in
// flight (1) stops the flight from filling the cache and (2) forces a
// later arrival at the new epoch to wait the old flight out and refetch —
// it must never be served the possibly-pre-write answer.
func TestReadCacheStaleFlightRetry(t *testing.T) {
	var epoch atomic.Uint64
	m := newMetrics(nil)
	rc := newReadCache(4, &epochs{global: &epoch}, m)
	old := &f2db.Result{Plan: "old"}
	fresh := &f2db.Result{Plan: "new"}
	release := make(chan struct{})

	go func() {
		_, _ = rc.result("k", nil, func() (*f2db.Result, error) {
			<-release
			return old, nil
		})
	}()
	waitFor(t, "flight registered", func() bool {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		_, ok := rc.flights["k"]
		return ok
	})
	epoch.Add(1) // a write lands mid-flight

	done := make(chan *f2db.Result, 1)
	go func() {
		r, _ := rc.result("k", nil, func() (*f2db.Result, error) { return fresh, nil })
		done <- r
	}()
	time.Sleep(20 * time.Millisecond) // let the new-epoch caller park on the stale flight
	close(release)
	if r := <-done; r != fresh {
		t.Fatal("new-epoch caller was served the stale flight's answer")
	}
	if m.CacheCoalesced.Load() != 0 {
		t.Fatal("new-epoch caller coalesced onto a stale flight")
	}
	// The leader must not have filled (epoch moved); the retry did, at the
	// new epoch.
	got, _ := rc.result("k", nil, func() (*f2db.Result, error) {
		t.Fatal("refetch ran; the retry's fill is missing")
		return nil, nil
	})
	if got != fresh {
		t.Fatal("cache holds the stale answer")
	}
}

// TestCoordCacheInvalidationWindow is the deterministic end-to-end
// invalidation proof: fill → hit → Exec → the next identical query MISSES,
// fans out, and returns the post-write answer (bit-exact vs the twin),
// then serves hits again at the new epoch.
func TestCoordCacheInvalidationWindow(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 64
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	m := co.Metrics()

	const q = "SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '2 steps'"
	r1, err := co.Query(q) // fill
	if err != nil {
		t.Fatal(err)
	}
	w1, err := twin.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pre-write fill", r1, w1)
	r2, err := co.Query(q) // hit
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pre-write hit", r2, w1)
	if m.CacheMisses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", m.CacheMisses.Load(), m.CacheHits.Load())
	}

	ins := batchInsertSQL(100)
	if err := co.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if err := twin.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if e := co.epoch.Load(); e != 1 {
		t.Fatalf("write epoch = %d after one Exec, want 1", e)
	}

	r3, err := co.Query(q) // must miss and refill at the new epoch
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses.Load() != 2 {
		t.Fatalf("post-write query did not miss: misses=%d", m.CacheMisses.Load())
	}
	if m.CacheInvalidations.Load() != 1 {
		t.Fatalf("invalidations = %d, want 1", m.CacheInvalidations.Load())
	}
	w3, err := twin.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-write refill", r3, w3)

	// The answer genuinely changed — the invalidation mattered.
	changed := false
	for i := range r1.Groups {
		a, b := r1.Groups[i].Rows, r3.Groups[i].Rows
		if len(a) != len(b) {
			changed = true
			continue
		}
		for j := range a {
			if math.Float64bits(a[j].Value) != math.Float64bits(b[j].Value) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("pre- and post-write answers identical; the test proves nothing")
	}

	r4, err := co.Query(q) // hit at the new epoch
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-write hit", r4, w3)
	if m.CacheHits.Load() != 2 {
		t.Fatalf("refilled entry not served: hits=%d", m.CacheHits.Load())
	}
}

// TestCoordCacheQuickInterleavings drives random Exec/Query interleavings
// (testing/quick picks the seeds) through a cached coordinator and the
// single-process twin in lockstep; every query answer must stay bit-exact.
func TestCoordCacheQuickInterleavings(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	s0 := startShardOn(t, data, "127.0.0.1:0")
	s1 := startShardOn(t, data, "127.0.0.1:0")
	defer s0.stop(t)
	defer s1.stop(t)
	opts := testCoordOpts(t)
	opts.CacheSize = 8 // small: exercise eviction alongside invalidation
	co, err := New(f2db.NewPlanner(g, 0), []string{s0.addr, s1.addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	queries := []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C2'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, city WITH INTERVAL 95",
		"SELECT time, SUM(sales) FROM facts WHERE product = 'P2' GROUP BY time, region AS OF now() + '3 steps'",
	}
	val := 0
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 12; op++ {
			if rng.Intn(3) == 0 {
				val++
				ins := batchInsertSQL(val * 10)
				if err := co.Exec(ins); err != nil {
					t.Fatalf("seed %d op %d: coordinator exec: %v", seed, op, err)
				}
				if err := twin.Exec(ins); err != nil {
					t.Fatalf("seed %d op %d: twin exec: %v", seed, op, err)
				}
				continue
			}
			q := queries[rng.Intn(len(queries))]
			got, err := co.Query(q)
			if err != nil {
				t.Fatalf("seed %d op %d: coordinator: %v", seed, op, err)
			}
			want, err := twin.Query(q)
			if err != nil {
				t.Fatalf("seed %d op %d: twin: %v", seed, op, err)
			}
			sameResult(t, q, got, want)
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
	m := co.Metrics()
	if m.CacheHits.Load() == 0 || m.CacheInvalidations.Load() == 0 {
		t.Fatalf("interleavings exercised hits=%d invalidations=%d; want both > 0",
			m.CacheHits.Load(), m.CacheInvalidations.Load())
	}
}

// TestCoordCacheTwinRace is the tentpole -race proof: a cache-on
// coordinator under concurrent identical queries racing live writes stays
// bit-exact — once quiesced — with a cache-off coordinator over its own
// shard and with the single-process twin. Queries that race an in-flight
// write may legitimately see either side, so the racing burst asserts only
// that every answer arrives without error; the bit-exact comparison runs
// at each write boundary.
func TestCoordCacheTwinRace(t *testing.T) {
	g, data := buildCube(t)
	twin := loadEngine(t, data)
	a0 := startShardOn(t, data, "127.0.0.1:0")
	a1 := startShardOn(t, data, "127.0.0.1:0")
	b0 := startShardOn(t, data, "127.0.0.1:0")
	defer a0.stop(t)
	defer a1.stop(t)
	defer b0.stop(t)

	cachedOpts := testCoordOpts(t)
	cachedOpts.CacheSize = 32
	cached, err := New(f2db.NewPlanner(g, 0), []string{a0.addr, a1.addr}, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached, err := New(f2db.NewPlanner(g, 0), []string{b0.addr}, testCoordOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()

	queries := []string{
		"SELECT time, sales FROM facts WHERE product = 'P1' AND city = 'C1'",
		"SELECT time, SUM(sales) FROM facts WHERE region = 'R1' AS OF now() + '2 steps'",
		"SELECT time, SUM(sales) FROM facts",
		"SELECT time, SUM(sales) FROM facts GROUP BY time, region AS OF now() + '1 steps'",
	}
	const phases, readers, readsPer = 4, 6, 5
	for phase := 0; phase < phases; phase++ {
		// Readers hammer the hot set while the write lands mid-burst.
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < readsPer; i++ {
					q := queries[(r+i)%len(queries)]
					if _, err := cached.Query(q); err != nil {
						t.Errorf("racing query %q: %v", q, err)
					}
				}
			}(r)
		}
		ins := batchInsertSQL(phase * 100)
		if err := cached.Exec(ins); err != nil {
			t.Fatalf("phase %d: cached exec: %v", phase, err)
		}
		wg.Wait()
		if err := uncached.Exec(ins); err != nil {
			t.Fatalf("phase %d: uncached exec: %v", phase, err)
		}
		if err := twin.Exec(ins); err != nil {
			t.Fatalf("phase %d: twin exec: %v", phase, err)
		}

		// Quiesced: all three must agree bit-for-bit.
		for _, q := range queries {
			gc, err := cached.Query(q)
			if err != nil {
				t.Fatalf("phase %d cached %q: %v", phase, q, err)
			}
			gu, err := uncached.Query(q)
			if err != nil {
				t.Fatalf("phase %d uncached %q: %v", phase, q, err)
			}
			w, err := twin.Query(q)
			if err != nil {
				t.Fatalf("phase %d twin %q: %v", phase, q, err)
			}
			sameResult(t, "cached vs twin: "+q, gc, w)
			sameResult(t, "uncached vs twin: "+q, gu, w)
		}
	}
	m := cached.Metrics()
	if m.CacheHits.Load() == 0 || m.CacheMisses.Load() == 0 || m.CacheInvalidations.Load() == 0 {
		t.Fatalf("race run left the cache unexercised: hits=%d misses=%d invalidations=%d",
			m.CacheHits.Load(), m.CacheMisses.Load(), m.CacheInvalidations.Load())
	}
}
