package f2db

import (
	"container/list"
	"strings"
	"sync"
)

// The SQL fast path, layer 1 (see DESIGN.md §cache): parsing and node
// resolution dominate the SQL query cost over the actual forecast
// derivation. Both depend only on immutable engine state — the query text,
// the graph structure (fixed after NewGraph) and the engine step duration —
// so a fully resolved plan can be cached and shared across goroutines
// without any invalidation protocol. The cache is a small mutex-guarded LRU
// keyed by whitespace-normalized query text.

// NormalizeSQL canonicalizes a statement text for cache keying: runs of
// whitespace collapse to single spaces so reformatting a query does not
// defeat the cache. Case is preserved — member values are case-sensitive
// and folding keywords only would cost more than the rare duplicate entry.
//
// Statements that are already in canonical form — the overwhelmingly common
// case for programmatic clients replaying identical texts — are returned
// as-is without allocating. The scan only inspects ASCII whitespace; a text
// using exotic Unicode spaces merely keys separately from its collapsed
// form, which costs a duplicate cache entry, not correctness.
//
// It is exported because it is the single keying function for every
// statement cache in the system: the engine's plan cache here and the
// cluster coordinator's result/route caches (internal/coord) key by the
// same normalized text, so the two tiers can never disagree on whether two
// statements are "the same".
func NormalizeSQL(sql string) string {
	for i := 0; i < len(sql); i++ {
		switch sql[i] {
		case '\t', '\n', '\v', '\f', '\r':
			return strings.Join(strings.Fields(sql), " ")
		case ' ':
			if i == 0 || i == len(sql)-1 || sql[i+1] == ' ' {
				return strings.Join(strings.Fields(sql), " ")
			}
		}
	}
	return sql
}

// planCache is a concurrency-safe LRU of resolved query plans. All stored
// plans are immutable after construction, so get may hand the same *queryPlan
// to any number of concurrent readers.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type planCacheEntry struct {
	key  string
	plan *queryPlan
}

// newPlanCache returns an LRU holding at most capacity plans (capacity >= 1).
func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the plan cached under key and marks it most recently used.
func (c *planCache) get(key string) (*queryPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).plan, true
}

// put stores a plan under key, evicting the least recently used entry when
// the cache is full. It reports whether an eviction happened.
func (c *planCache) put(key string, p *queryPlan) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planCacheEntry).plan = p
		c.ll.MoveToFront(el)
		return false
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*planCacheEntry).key)
			evicted = true
		}
	}
	c.items[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: p})
	return evicted
}

// len returns the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keys returns the cached keys from most to least recently used (snapshot
// plan-warmup persistence and tests).
func (c *planCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planCacheEntry).key)
	}
	return out
}
