package f2db

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The SQL fast path, layer 2 (see DESIGN.md §cache): a forecast answered
// from unchanged model state is a pure function of (node, horizon,
// confidence), so repeated queries can be served from a memo table instead
// of re-running model Forecast calls and scheme derivation. Invalidation
// must be cheap — maintenance batches arrive continuously — so instead of
// sweeping the table on every write, each node carries an epoch counter:
//
//   - computing a forecast stamps the memo entry with the node's epoch;
//   - any state change that could alter a node's forecast (a maintenance
//     batch advancing time, a model re-estimation) atomically increments
//     the epochs of every affected node;
//   - a lookup whose entry carries a stale epoch is treated as a miss and
//     the entry is overwritten by the recomputation.
//
// Writers only ever pay O(affected nodes) atomic increments; stale entries
// are reclaimed lazily at overwrite or by the eviction sweep when the table
// reaches capacity. The entry map sits behind one RWMutex (lookups share
// it); the epoch array is lock-free and per-node.

// fcKey identifies one memoized forecast.
type fcKey struct {
	node int
	h    int
	conf float64 // 0 = point forecast only
}

// fcEntry is one memoized forecast stamped with the node epoch it was
// computed under. The slices are owned by the cache; they are cloned on the
// way in and on the way out.
type fcEntry struct {
	epoch  uint64
	point  []float64
	lo, hi []float64
}

// fcCache is the epoch-guarded forecast memo table. Epoch bumps are
// lock-free; the entry map is guarded by mu; capacity is fixed at creation.
type fcCache struct {
	epochs   []atomic.Uint64 // one per graph node
	mu       sync.RWMutex
	items    map[fcKey]fcEntry
	capacity int
}

// newFcCache sizes the memo table for a graph with numNodes nodes.
func newFcCache(numNodes, capacity int) *fcCache {
	if capacity < 1 {
		capacity = 1
	}
	return &fcCache{
		epochs:   make([]atomic.Uint64, numNodes),
		items:    make(map[fcKey]fcEntry, capacity/4),
		capacity: capacity,
	}
}

// epoch returns the current epoch of a node.
func (c *fcCache) epoch(node int) uint64 { return c.epochs[node].Load() }

// bump invalidates every memoized forecast of a node with one atomic
// increment. It returns 1 (the number of epochs bumped) for metric
// accounting convenience.
func (c *fcCache) bump(node int) int64 {
	c.epochs[node].Add(1)
	return 1
}

// bumpAll invalidates all nodes (a maintenance batch advanced time, which
// changes every node's series and every model's state). Returns the number
// of epochs bumped.
func (c *fcCache) bumpAll() int64 {
	for i := range c.epochs {
		c.epochs[i].Add(1)
	}
	return int64(len(c.epochs))
}

// get returns clones of the memoized forecast slices if an entry exists and
// its epoch matches the node's current epoch. A stale entry is reported as
// a miss (and left for the next store to overwrite).
func (c *fcCache) get(key fcKey) (point, lo, hi []float64, ok bool) {
	cur := c.epochs[key.node].Load()
	c.mu.RLock()
	e, found := c.items[key]
	c.mu.RUnlock()
	if !found || e.epoch != cur {
		return nil, nil, nil, false
	}
	return cloneFloats(e.point), cloneFloats(e.lo), cloneFloats(e.hi), true
}

// put memoizes a freshly computed forecast under the node's current epoch.
// The caller must hold the engine lock (shared or exclusive) so the epoch
// read here is consistent with the state the forecast was derived from:
// epoch bumps only happen under the exclusive engine lock. Returns the
// number of entries evicted by the capacity sweep.
func (c *fcCache) put(key fcKey, point, lo, hi []float64) (evicted int64) {
	e := fcEntry{
		epoch: c.epochs[key.node].Load(),
		point: cloneFloats(point),
		lo:    cloneFloats(lo),
		hi:    cloneFloats(hi),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.items[key]; !exists && len(c.items) >= c.capacity {
		// Capacity sweep: drop stale-epoch entries first; if every entry is
		// live the table is genuinely too small — reset it rather than
		// tracking LRU order on the query hot path.
		for k, v := range c.items {
			if v.epoch != c.epochs[k.node].Load() {
				delete(c.items, k)
				evicted++
			}
		}
		if len(c.items) >= c.capacity {
			evicted += int64(len(c.items))
			c.items = make(map[fcKey]fcEntry, c.capacity/4)
		}
	}
	c.items[key] = e
	return evicted
}

// hotKeys returns up to max keys of live entries — entries whose stamped
// epoch matches their node's current epoch, i.e. forecasts the memo table
// could serve right now. Keys are sorted (node, h, conf) so snapshot
// images are deterministic. Used by SaveDatabase to persist the derivation
// layer's working set (the memo analogue of plan-text warmup).
func (c *fcCache) hotKeys(max int) []fcKey {
	var keys []fcKey
	c.mu.RLock()
	for k, e := range c.items {
		if e.epoch == c.epochs[k.node].Load() {
			keys = append(keys, k)
		}
	}
	c.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.h != b.h {
			return a.h < b.h
		}
		return a.conf < b.conf
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// size returns the number of memoized entries (live and stale).
func (c *fcCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.items)
}

func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}
