package f2db

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// Tests for the pending insert batch (db.go, DESIGN.md §6): one buffer
// behind one mutex, drained by the batch advance under the engine write
// lock. The twin tests run the engine under concurrent writers and readers
// and demand results byte-identical to a sequential reference fed the same
// batches. They are part of the CI race-stress suite:
//
//	go test -race -run 'Stripe|SaveDatabaseInsertBatch' -count=3 ./internal/f2db/
//
// The TestStripe* names date from when the batch was sharded into write
// stripes; they are kept so each test keeps its identity across history.

// concurrentTwins clones one engine into two instances: one the test feeds
// concurrently and a sequential reference. Both use the Never invalidation
// strategy: lazy re-estimation is triggered by query timing, so any
// time-based strategy would make concurrent runs nondeterministic by
// design; with Never the two engines must match bit for bit.
func concurrentTwins(t *testing.T) (conc, seq *DB) {
	t.Helper()
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	conc, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err = LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return conc, seq
}

// splitRoundRobin deals a batch's values over n sub-batches in ascending
// ID order, so every writer's sub-batch interleaves with the others'.
func splitRoundRobin(batch map[int]float64, n int) []map[int]float64 {
	ids := make([]int, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]map[int]float64, n)
	for i := range parts {
		parts[i] = make(map[int]float64)
	}
	for i, id := range ids {
		parts[i%n][id] = batch[id]
	}
	return parts
}

// TestStripeTwinEngines is the central write-path correctness check: an
// engine fed by 8 concurrent writers with 4 concurrent readers in flight
// must end every round in exactly the state a twin reaches applying the
// same batches sequentially — byte-identical forecasts for every node and
// horizon, and identical Stats counters.
func TestStripeTwinEngines(t *testing.T) {
	const (
		rounds           = 5
		writers          = 8
		readers          = 4
		queriesPerReader = 25
	)
	striped, seq := concurrentTwins(t)
	numNodes := striped.Graph().NumNodes()

	for round := 0; round < rounds; round++ {
		batch := fullBatch(striped, round)
		parts := splitRoundRobin(batch, writers)

		errs := make([]error, writers+readers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = striped.InsertBatch(parts[w])
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for j := 0; j < queriesPerReader; j++ {
					node := (r*31 + j*7) % numNodes
					if _, err := striped.ForecastNode(node, 1+j%3); err != nil {
						errs[writers+r] = err
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

		// Sequential reference: same batch, then the same query count
		// (readers change no model state under Never, only counters).
		if err := seq.InsertBatch(batch); err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		for r := 0; r < readers; r++ {
			for j := 0; j < queriesPerReader; j++ {
				node := (r*31 + j*7) % numNodes
				if _, err := seq.ForecastNode(node, 1+j%3); err != nil {
					t.Fatalf("round %d: reference query: %v", round, err)
				}
			}
		}
	}

	sp, sq := striped.Stats(), seq.Stats()
	if sp.Queries != sq.Queries || sp.Inserts != sq.Inserts ||
		sp.Batches != sq.Batches || sp.Reestimations != sq.Reestimations ||
		sp.PendingInserts != sq.PendingInserts {
		t.Fatalf("stats diverged:\nstriped: %+v\nseq:     %+v", sp, sq)
	}
	for node := 0; node < numNodes; node++ {
		for h := 1; h <= 3; h++ {
			a, err := striped.ForecastNode(node, h)
			if err != nil {
				t.Fatal(err)
			}
			b, err := seq.ForecastNode(node, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("node %d h=%d: len %d != %d", node, h, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("node %d h=%d step %d: %v != %v (not byte-identical)",
						node, h, i, a[i], b[i])
				}
			}
		}
	}
}

// TestStripeInsertBaseConcurrent free-runs one InsertBase producer per base
// series with no cross-producer synchronization: a producer that laps the
// batch gets a duplicate error and must retry until the slower producers
// complete the advance. This hammers the duplicate check that tells a
// genuine duplicate from a value offered against a complete batch that has
// not advanced yet (help advance, then retry).
func TestStripeInsertBaseConcurrent(t *testing.T) {
	const rounds = 20
	striped, seq := concurrentTwins(t)
	ids := striped.Graph().BaseIDs()

	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for w, id := range ids {
		wg.Add(1)
		go func(w, id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := 40 + float64(r)*3 + float64(w)*0.25
				for {
					err := striped.InsertBase(id, v)
					if err == nil {
						break
					}
					if !strings.Contains(err.Error(), "duplicate") {
						errs[w] = err
						return
					}
					// Lapped the batch: wait for the advance.
					runtime.Gosched()
				}
			}
		}(w, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < rounds; r++ {
		batch := make(map[int]float64, len(ids))
		for w, id := range ids {
			batch[id] = 40 + float64(r)*3 + float64(w)*0.25
		}
		if err := seq.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := striped.Stats().Batches, rounds; got != want {
		t.Fatalf("batches = %d, want %d", got, want)
	}
	if p := striped.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d after complete rounds", p)
	}
	for _, id := range ids {
		a, err := striped.ForecastNode(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seq.ForecastNode(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("node %d: %v != %v", id, a[i], b[i])
			}
		}
	}
}

// TestStripeAdvanceInsertRace hammers inserts landing while an advance is
// in flight. Writers are partitioned over the base series and free-run
// through many consecutive batches with no barrier per advance, so a fast
// writer's next-batch value routinely arrives while the previous batch is
// being applied. An advance that lost or mis-counted such a value would
// wedge the engine — the completion check never fires again and every
// insert reports a spurious duplicate — so each writer gives up after a
// deadline instead of retrying forever, turning the wedge into a test
// failure rather than a hang.
func TestStripeAdvanceInsertRace(t *testing.T) {
	const (
		rounds  = 300
		writers = 4
	)
	striped, _ := concurrentTwins(t)
	ids := striped.Graph().BaseIDs()
	len0 := striped.Graph().Length()

	var wedged atomic.Bool
	timer := time.AfterFunc(time.Minute, func() { wedged.Store(true) })
	defer timer.Stop()

	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		var own []int
		for i, id := range ids {
			if i%writers == w {
				own = append(own, id)
			}
		}
		wg.Add(1)
		go func(w int, own []int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, id := range own {
					v := 20 + float64(r)*2 + float64(id)*0.125
					for {
						err := striped.InsertBase(id, v)
						if err == nil {
							break
						}
						if !strings.Contains(err.Error(), "duplicate") {
							errs[w] = err
							return
						}
						if wedged.Load() {
							errs[w] = fmt.Errorf("writer %d wedged retrying node %d in round %d: advance never applied", w, id, r)
							return
						}
						runtime.Gosched()
					}
				}
			}
		}(w, own)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := striped.Stats().Batches, rounds; got != want {
		t.Fatalf("batches = %d, want %d", got, want)
	}
	if got, want := striped.Graph().Length(), len0+rounds; got != want {
		t.Fatalf("length = %d, want %d", got, want)
	}
	if p := striped.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d after %d complete rounds", p, rounds)
	}
}

// TestStripeAdvanceQuickProperty drives random InsertBatch interleavings
// with testing/quick and checks the two advance invariants:
// time never moves until a value has arrived for every base series, and
// when it does move, every node's memo epoch is bumped exactly once.
func TestStripeAdvanceQuickProperty(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	prop := func(seed int64) bool {
		db, err := LoadDatabase(bytes.NewReader(data), Options{Strategy: Never{}})
		if err != nil {
			t.Error(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		ids := append([]int(nil), db.Graph().BaseIDs()...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		// Cut the shuffled IDs into 1..len random contiguous parts: one
		// random sequence of partial batches.
		var parts [][]int
		for len(ids) > 0 {
			n := 1 + rng.Intn(len(ids))
			parts = append(parts, ids[:n])
			ids = ids[n:]
		}

		numNodes := db.Graph().NumNodes()
		epochs0 := make([]uint64, numNodes)
		for i := range epochs0 {
			epochs0[i] = db.fc.epochs[i].Load()
		}
		len0 := db.Graph().Length()

		for pi, part := range parts {
			batch := make(map[int]float64, len(part))
			for _, id := range part {
				batch[id] = 30 + 50*rng.Float64()
			}
			if err := db.InsertBatch(batch); err != nil {
				t.Errorf("part %d: %v", pi, err)
				return false
			}
			last := pi == len(parts)-1
			if !last {
				if got := db.Graph().Length(); got != len0 {
					t.Errorf("time advanced after partial batch: length %d != %d", got, len0)
					return false
				}
				if b := db.Stats().Batches; b != 0 {
					t.Errorf("batch advanced early: batches = %d", b)
					return false
				}
				for i := range epochs0 {
					if e := db.fc.epochs[i].Load(); e != epochs0[i] {
						t.Errorf("node %d epoch bumped before advance: %d -> %d", i, epochs0[i], e)
						return false
					}
				}
			}
		}

		if got := db.Graph().Length(); got != len0+1 {
			t.Errorf("length %d after complete batch, want %d", got, len0+1)
			return false
		}
		if b := db.Stats().Batches; b != 1 {
			t.Errorf("batches = %d, want 1", b)
			return false
		}
		if p := db.Stats().PendingInserts; p != 0 {
			t.Errorf("pending = %d after advance", p)
			return false
		}
		for i := range epochs0 {
			if e := db.fc.epochs[i].Load(); e != epochs0[i]+1 {
				t.Errorf("node %d epoch %d, want %d (exactly one bump per advance)", i, e, epochs0[i]+1)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStripeDuplicateSemantics: a value for a base series already pending
// in the current batch is an error on both write paths and does not
// disturb the pending count. InsertBatch applies values in ascending ID
// order, so exactly the values before the duplicate stay pending.
func TestStripeDuplicateSemantics(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	ids := append([]int(nil), db.Graph().BaseIDs()...)
	sort.Ints(ids)

	if err := db.InsertBase(ids[1], 50); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBase(ids[1], 51); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate InsertBase: err = %v", err)
	}
	if err := db.InsertBatch(map[int]float64{ids[0]: 52, ids[1]: 53, ids[2]: 54}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate InsertBatch: err = %v", err)
	}
	if p := db.Stats().PendingInserts; p != 2 {
		t.Fatalf("pending = %d after duplicate InsertBatch, want 2 (ids[0] applied, ids[2] not)", p)
	}
	rest := make(map[int]float64)
	for _, id := range ids[2:] {
		rest[id] = 55
	}
	if err := db.InsertBatch(rest); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Batches; got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if p := db.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d, want 0", p)
	}
	// A duplicate offered against a complete batch is not an error: the
	// call helps apply the advance and lands in the next batch. The hook
	// refuses the first commit, leaving a complete batch pending.
	refuse := true
	db.commitHook = func(uint64, map[int]float64) error {
		if refuse {
			refuse = false
			return fmt.Errorf("commit refused")
		}
		return nil
	}
	full := fullBatch(db, 1)
	if err := db.InsertBatch(full); err == nil || !strings.Contains(err.Error(), "commit refused") {
		t.Fatalf("refused commit: err = %v", err)
	}
	if p := db.Stats().PendingInserts; p != len(ids) {
		t.Fatalf("pending = %d after refused commit, want %d (every value kept)", p, len(ids))
	}
	if err := db.InsertBase(ids[0], 60); err != nil {
		t.Fatalf("insert against a complete batch: %v", err)
	}
	if got := db.Stats().Batches; got != 2 {
		t.Fatalf("batches = %d, want 2", got)
	}
	if p := db.Stats().PendingInserts; p != 1 {
		t.Fatalf("pending = %d, want 1 (the retried value)", p)
	}
}

// TestStripeSnapshotMidBatch: a snapshot taken with a half-filled batch
// restores its pending values, and the restored batch completes normally.
func TestStripeSnapshotMidBatch(t *testing.T) {
	src, _, _ := testEngine(t, nil)
	ids := src.Graph().BaseIDs()
	for _, id := range ids[:3] {
		if err := src.InsertBase(id, 61); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, src); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := db.Stats().PendingInserts; p != 3 {
		t.Fatalf("pending = %d after restore, want 3", p)
	}
	rest := make(map[int]float64)
	for _, id := range ids[3:] {
		rest[id] = 62
	}
	wantLen := db.Graph().Length() + 1
	if err := db.InsertBatch(rest); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph().Length(); got != wantLen {
		t.Fatalf("length %d, want %d", got, wantLen)
	}
}

// TestSaveDatabaseInsertBatchAtomic races SaveDatabase against concurrent
// InsertBatch calls that do not complete a batch. Such a call holds the
// pending mutex for its whole duration, so every image must hold each
// call's values all or none.
func TestSaveDatabaseInsertBatchAtomic(t *testing.T) {
	const rounds = 1000
	db, _, _ := testEngine(t, nil)
	ids := append([]int(nil), db.Graph().BaseIDs()...)
	sort.Ints(ids)
	last := ids[len(ids)-1]
	// Three writers over interleaved ID groups; the last base series is
	// left out so no call completes the batch.
	groups := make([][]string, 3)
	calls := make([]map[int]float64, 3)
	for i := range calls {
		calls[i] = make(map[int]float64)
	}
	for i, id := range ids[:len(ids)-1] {
		w := i % len(calls)
		calls[w][id] = 70 + float64(i)
		groups[w] = append(groups[w], db.Graph().NodeKey(id))
	}

	// The saver snapshots continuously while the rounds below run.
	stop := make(chan struct{})
	saverErr := make(chan error, 1)
	var images, mixed int
	go func() {
		for {
			select {
			case <-stop:
				saverErr <- nil
				return
			default:
			}
			var buf bytes.Buffer
			if err := SaveDatabase(&buf, db); err != nil {
				saverErr <- err
				return
			}
			var img dbImage
			if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
				saverErr <- err
				return
			}
			images++
			whole := 0
			for w, keys := range groups {
				n := 0
				for _, k := range keys {
					if _, ok := img.Pending[k]; ok {
						n++
					}
				}
				if n != 0 && n != len(keys) {
					saverErr <- fmt.Errorf("image holds %d of call %d's %d values", n, w, len(keys))
					return
				}
				if n > 0 {
					whole++
				}
			}
			if whole > 0 && whole < len(groups) {
				mixed++
			}
		}
	}()

	for r := 0; r < rounds; r++ {
		var writers sync.WaitGroup
		errs := make([]error, len(calls))
		for w := range calls {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				errs[w] = db.InsertBatch(calls[w])
			}(w)
		}
		writers.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Complete the batch so the next round starts from an empty one.
		if err := db.InsertBase(last, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-saverErr; err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Batches; got != rounds {
		t.Fatalf("batches = %d, want %d", got, rounds)
	}
	t.Logf("%d images, %d caught some calls of a round but not all", images, mixed)
}

// TestStripeGuardWitness: exclusive-only paths must refuse to run without
// the write lock — the guard replaces the old exclusive-flag convention
// with an assertion that fails loudly.
func TestStripeGuardWitness(t *testing.T) {
	db, _, _ := testEngine(t, nil)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: assertExclusive did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero guard", func() { db.assertExclusive(guard{}) })
	mustPanic("read guard", func() {
		g := db.rLock()
		defer db.unlock(g)
		db.assertExclusive(g)
	})
	// Forged exclusive guard without the lock held: the writeHeld check
	// catches it.
	mustPanic("forged guard", func() { db.assertExclusive(guard{exclusive: true}) })

	g := db.wLock()
	db.assertExclusive(g) // must not panic
	db.unlock(g)
}

// TestStripeMetrics: the pending count tracks partial fills and an
// advance, and StripeContention reports contended acquisitions of the
// pending mutex in its one element.
func TestStripeMetrics(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	ids := db.Graph().BaseIDs()
	for _, id := range ids[:5] {
		if err := db.InsertBase(id, 47); err != nil {
			t.Fatal(err)
		}
	}
	if p := db.Stats().PendingInserts; p != 5 {
		t.Fatalf("pending = %d, want 5", p)
	}
	m := db.Metrics()
	if len(m.StripeContention) != 1 || m.StripeContention[0] != 0 {
		t.Fatalf("contention = %v, want [0] after uncontended inserts", m.StripeContention)
	}

	// Hold the pending mutex so the next insert must wait for it: the
	// insert counts its contended acquisition before blocking.
	db.pmu.Lock()
	errc := make(chan error, 1)
	go func() { errc <- db.InsertBase(ids[5], 47) }()
	for db.Metrics().StripeContention[0] != 1 {
		runtime.Gosched()
	}
	db.pmu.Unlock()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	rest := make(map[int]float64)
	for _, id := range ids[6:] {
		rest[id] = 48
	}
	if err := db.InsertBatch(rest); err != nil {
		t.Fatal(err)
	}
	if p := db.Stats().PendingInserts; p != 0 {
		t.Fatalf("pending = %d after advance, want 0", p)
	}
	if got := db.Metrics().StripeContention; len(got) != 1 || got[0] != 1 {
		t.Fatalf("contention = %v, want [1]", got)
	}
	var prom bytes.Buffer
	writePrometheus(&prom, db)
	if !strings.Contains(prom.String(), "f2db_pending_lock_contention_total 1\n") {
		t.Fatalf("exposition lacks the pending-lock contention counter:\n%s", prom.String())
	}
}
