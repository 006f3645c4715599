package f2db

import (
	"sync"
	"testing"
	"time"

	"cubefc/internal/segment"
)

// Tests for the self-tuning surface: the query telemetry hook, the dynamic
// cache capacities, batched re-estimation of the invalid set, and the
// background checkpoint scheduler (all fake-clock / synchronous — no
// sleeps).

type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (r *keyRecorder) ObserveTemplate(key string) {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
}

func TestQueryTelemetryHook(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	rec := &keyRecorder{}
	db.SetTelemetry(rec)
	messy := "SELECT   time,\tSUM(m) FROM facts  WHERE product = 'P1'"
	canon := NormalizeSQL(messy)
	if _, err := db.Query(messy); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(canon); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) != 2 || rec.keys[0] != canon || rec.keys[1] != canon {
		t.Fatalf("observed %q, want the shared normalized key %q twice", rec.keys, canon)
	}
	// Rejected statements never reach the hook: the template table must
	// not fill with garbage.
	if _, err := db.Query("SELECT nonsense"); err == nil {
		t.Fatal("malformed query accepted")
	}
	if len(rec.keys) != 2 {
		t.Fatalf("rejected statement observed: %q", rec.keys)
	}
	// Detaching stops observation without touching the query path.
	db.SetTelemetry(nil)
	if _, err := db.Query(canon); err != nil {
		t.Fatal(err)
	}
	if len(rec.keys) != 2 {
		t.Fatalf("detached telemetry still observed: %q", rec.keys)
	}
}

func TestSetPlanCacheCapacityShrinkEvictsLRU(t *testing.T) {
	db, _, _ := testEngine(t, nil)
	qs := []string{
		"SELECT time, SUM(m) FROM facts WHERE product = 'P1'",
		"SELECT time, SUM(m) FROM facts WHERE product = 'P2'",
		"SELECT time, SUM(m) FROM facts WHERE city = 'C1'",
		"SELECT time, SUM(m) FROM facts WHERE city = 'C2'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R1'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R2'",
	}
	for _, q := range qs {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().PlanCacheSize; got != len(qs) {
		t.Fatalf("plan cache holds %d, want %d", got, len(qs))
	}
	if ev := db.SetPlanCacheCapacity(2); ev != len(qs)-2 {
		t.Fatalf("shrink evicted %d, want %d", ev, len(qs)-2)
	}
	m := db.Metrics()
	if m.PlanCacheSize != 2 {
		t.Fatalf("plan cache holds %d after shrink, want 2", m.PlanCacheSize)
	}
	if m.PlanCacheEvictions < int64(len(qs)-2) {
		t.Fatalf("evictions metric %d, want >= %d", m.PlanCacheEvictions, len(qs)-2)
	}
	// The two most recently used plans survived the shrink...
	hits := db.Metrics().PlanCacheHits
	for _, q := range qs[len(qs)-2:] {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().PlanCacheHits - hits; got != 2 {
		t.Fatalf("MRU plans hit %d times after shrink, want 2", got)
	}
	// ...and an evicted one re-plans (miss), still answering correctly.
	misses := db.Metrics().PlanCacheMisses
	if _, err := db.Query(qs[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().PlanCacheMisses - misses; got != 1 {
		t.Fatalf("evicted plan missed %d times, want 1", got)
	}
	// Growing evicts nothing.
	if ev := db.SetPlanCacheCapacity(512); ev != 0 {
		t.Fatalf("grow evicted %d", ev)
	}
}

func TestSetForecastCacheCapacityShrink(t *testing.T) {
	// Capacity 1 must leave at most one live entry.
	_, g, cfg := testEngine(t, nil)
	db, err := Open(g, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qs := []string{
		"SELECT time, SUM(m) FROM facts WHERE product = 'P1' AS OF now() + '1 steps'",
		"SELECT time, SUM(m) FROM facts WHERE product = 'P2' AS OF now() + '1 steps'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R1' AS OF now() + '2 steps'",
		"SELECT time, SUM(m) FROM facts WHERE region = 'R2' AS OF now() + '2 steps'",
	}
	for _, q := range qs {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Metrics().ForecastCacheSize
	if before < len(qs) {
		t.Fatalf("forecast memo holds %d, want >= %d", before, len(qs))
	}
	if ev := db.SetForecastCacheCapacity(1); ev < int(before)-1 {
		t.Fatalf("shrink evicted %d, want >= %d", ev, before-1)
	}
	if got := db.Metrics().ForecastCacheSize; got > 1 {
		t.Fatalf("forecast memo holds %d after shrink to 1, want <= 1", got)
	}
	// Shrunk memo still answers correctly (recompute path).
	want, err := db.Query(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
}

func TestReestimateInvalid(t *testing.T) {
	db, _, _ := testEngine(t, TimeBased{Every: 1})
	if err := db.InsertBatch(fullBatch(db, 0)); err != nil {
		t.Fatal(err)
	}
	n := db.InvalidCount()
	if n == 0 {
		t.Fatal("batch advance invalidated nothing under TimeBased{1}")
	}
	if got := db.ReestimateInvalid(); got != n {
		t.Fatalf("ReestimateInvalid re-fitted %d models, want %d", got, n)
	}
	if got := db.InvalidCount(); got != 0 {
		t.Fatalf("%d models still invalid after ReestimateInvalid", got)
	}
	// Idempotent when nothing is invalid.
	if got := db.ReestimateInvalid(); got != 0 {
		t.Fatalf("second ReestimateInvalid re-fitted %d models, want 0", got)
	}
}

func TestCheckpointSchedulerFakeClock(t *testing.T) {
	fs := segment.NewMemFS()
	d, err := OpenDurable(DurableOptions{Dir: "db", FS: fs}, crashEngineOpts(), func() (*DB, error) {
		db, _, _ := testEngine(t, Never{})
		return db, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	db := d.DB()
	s := NewCheckpointScheduler(d, CheckpointPolicy{Every: time.Minute, EveryBatches: 3}, t.Logf)
	now := time.Unix(1000, 0)

	// First tick only establishes the time baseline.
	if ran, _ := s.Tick(now); ran {
		t.Fatal("checkpoint ran with no batches and no baseline")
	}
	// An idle engine is never re-snapshotted, however much time passes.
	if ran, _ := s.Tick(now.Add(10 * time.Minute)); ran {
		t.Fatal("checkpoint ran on an idle engine")
	}
	// Three applied batches trip the batch trigger regardless of time.
	for i := 0; i < 3; i++ {
		if err := db.InsertBatch(fullBatch(db, i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps := db.Metrics().SnapshotWrites
	ran, err := s.Tick(now.Add(10*time.Minute + time.Second))
	if err != nil || !ran {
		t.Fatalf("batch trigger: ran=%v err=%v", ran, err)
	}
	if got := db.Metrics().SnapshotWrites; got != snaps+1 {
		t.Fatalf("snapshot writes %d, want %d", got, snaps+1)
	}
	// Baselines advanced: immediately due again only after new batches.
	if ran, _ := s.Tick(now.Add(10*time.Minute + 2*time.Second)); ran {
		t.Fatal("checkpoint re-ran with no new batches")
	}
	// One new batch + elapsed Every trips the time trigger.
	if err := db.InsertBatch(fullBatch(db, 9)); err != nil {
		t.Fatal(err)
	}
	base := now.Add(10*time.Minute + time.Second)
	if ran, _ := s.Tick(base.Add(30 * time.Second)); ran {
		t.Fatal("time trigger fired before Every elapsed")
	}
	ran, err = s.Tick(base.Add(2 * time.Minute))
	if err != nil || !ran {
		t.Fatalf("time trigger: ran=%v err=%v", ran, err)
	}

	// Start is a no-op under a zero policy; Stop without Start is safe.
	z := NewCheckpointScheduler(d, CheckpointPolicy{}, nil)
	z.Start()
	z.Stop()
	s.Start()
	s.Stop()
}
