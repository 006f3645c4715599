package coord

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"cubefc/internal/f2db"
)

// The coordinator read fast path (DESIGN.md §12). Every query that reaches
// the cluster tier otherwise pays a full wire fan-out — re-route, scatter,
// gather — even when the identical statement was answered microseconds ago
// and no write intervened. Real analytics traffic is dominated by a small
// set of recurring statement templates, exactly the hit distribution a
// statement-keyed cache exploits, so the coordinator keeps three layers in
// front of the shards:
//
//  1. Result cache: an LRU keyed by the normalized statement text
//     (f2db.NormalizeSQL — the same function the engine's plan cache keys
//     by, so the tiers cannot disagree) holding the fully-merged Result.
//     Each entry carries a write-epoch stamp taken at fill time and is
//     served only while the stamp is unchanged. Epochs are per write
//     partition (ShardFor over the statement's base nodes) plus one global
//     counter: a single-partition INSERT bumps only its partition, so it
//     invalidates only cached answers whose node set touches that
//     partition; multi-partition INSERTs and (conservatively detected)
//     batch advances bump the global counter, which every stamp includes.
//     This stays conservative-correct because pending inserts change no
//     query result until a batch advances time, and the advance always
//     bumps the global epoch — the per-partition counters only refine how
//     much of the cache a lone insert throws away.
//
//  2. Singleflight coalescing: concurrent identical statements under the
//     same stamp share one fan-out. The cache-miss thundering herd right
//     after each write collapses to a single scatter-gather; every waiter
//     gets the leader's result. A flight records the stamp it started
//     under and admits only same-stamp waiters — a query that arrives
//     after a newer write must not be served a fan-out that may predate
//     it.
//
//  3. Route memo: the Planner.RouteQuery rewrite (member order, per-member
//     sub-SQL) depends only on the immutable graph, so it is memoized
//     without any epoch — even cold statements skip re-parse/re-route. The
//     memo also carries the statement's touched-partition set, computed
//     once per template.
//
// Stamp/fill protocol. A lookup samples the stamp BEFORE consulting the
// cache; a flight completes by filling the cache only if the stamp is
// still the one it started under. The one racy window — a write appended
// after the fill check but before a reader's lookup — is harmless: the
// reader's own stamp sample then differs from the entry's and the entry is
// discarded (counted as an invalidation). Stale entries are dropped
// lazily on lookup, never swept: a write costs a handful of counter
// increments, not a cache scan.
//
// Cached *f2db.Result values are shared by every hit and must be treated
// as immutable by callers — the wire server only encodes them, and the
// engine's own results are already shared read-only structures.

// epochs is the cache's view of the coordinator's write-epoch counters:
// one global counter (bumped by multi-partition statements and whenever a
// batch advance may have completed) plus one counter per write partition.
// parts may be empty, collapsing the scheme to the global counter only.
type epochs struct {
	global *atomic.Uint64
	parts  []atomic.Uint64
}

// maxStampParts bounds the inline per-partition sample in a stamp; a
// statement touching more partitions is stamped with the global counter
// only (still correct — results only change on advances, which bump it —
// just coarser). Sized above any realistic shard count.
const maxStampParts = 8

// stamp is one sampled epoch view: the global counter plus the counters
// of the statement's touched partitions, in the route's partition order.
// Fixed-size so the cache-hit path stays allocation-free.
type stamp struct {
	global uint64
	n      int
	parts  [maxStampParts]uint64
}

// sample reads the current stamp for a partition set.
func (e *epochs) sample(parts []int) stamp {
	st := stamp{global: e.global.Load()}
	if len(e.parts) == 0 || len(parts) == 0 || len(parts) > maxStampParts {
		return st
	}
	st.n = len(parts)
	for i, p := range parts {
		st.parts[i] = e.parts[p].Load()
	}
	return st
}

// equal reports whether two stamps sampled for the same partition set
// describe the same write history.
func (a stamp) equal(b stamp) bool {
	if a.global != b.global || a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.parts[i] != b.parts[i] {
			return false
		}
	}
	return true
}

// resultEntry is one cached statement answer, valid while the epochs of
// its touched partitions still match st.
type resultEntry struct {
	key string
	st  stamp
	res *f2db.Result
}

// flight is one in-progress fan-out that concurrent identical statements
// under the same stamp wait on instead of fanning out themselves.
type flight struct {
	st   stamp
	done chan struct{}
	res  *f2db.Result
	err  error
}

// routeEntry is one memoized statement rewrite plus its touched-partition
// set (sorted, distinct ShardFor over the route's nodes).
type routeEntry struct {
	key   string
	route *f2db.Route
	parts []int
}

// readCache is the coordinator's statement-keyed read fast path: result
// LRU + singleflight table + route memo. It is safe for concurrent use.
type readCache struct {
	ep  *epochs
	met *Metrics
	cap int // shared by both LRUs; fixed at creation

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight

	rmu    sync.Mutex
	rll    *list.List
	ritems map[string]*list.Element
}

// newReadCache sizes both LRUs at capacity (>= 1).
func newReadCache(capacity int, ep *epochs, met *Metrics) *readCache {
	if capacity < 1 {
		capacity = 1
	}
	return &readCache{
		ep:      ep,
		met:     met,
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element, capacity),
		flights: make(map[string]*flight),
		rll:     list.New(),
		ritems:  make(map[string]*list.Element, capacity),
	}
}

// partsFor computes the sorted distinct write partitions a route's node
// set touches, given the partition count.
func partsFor(route *f2db.Route, numParts int) []int {
	if numParts <= 0 {
		return nil
	}
	seen := make(map[int]bool, numParts)
	var parts []int
	for _, n := range route.Nodes {
		p := ShardFor(n, numParts)
		if !seen[p] {
			seen[p] = true
			parts = append(parts, p)
		}
	}
	sort.Ints(parts)
	return parts
}

// routeFor returns the memoized route and touched-partition set for the
// normalized key, planning and memoizing on first sight. Planning errors
// are returned uncached — they are not on the hot path, and the rejection
// text must keep matching the planner's (and thus the engine's)
// byte-for-byte.
func (rc *readCache) routeFor(key, sql string, p *f2db.Planner) (*f2db.Route, []int, error) {
	rc.rmu.Lock()
	if el, ok := rc.ritems[key]; ok {
		rc.rll.MoveToFront(el)
		ent := el.Value.(*routeEntry)
		rc.rmu.Unlock()
		rc.met.RouteMemoHits.Add(1)
		return ent.route, ent.parts, nil
	}
	rc.rmu.Unlock()
	route, err := p.RouteQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	parts := partsFor(route, len(rc.ep.parts))
	rc.rmu.Lock()
	if el, ok := rc.ritems[key]; ok {
		// Raced with another planner; use the memoized entry so every
		// caller of this key shares one parts slice.
		ent := el.Value.(*routeEntry)
		route, parts = ent.route, ent.parts
	} else {
		if rc.rll.Len() >= rc.cap {
			if oldest := rc.rll.Back(); oldest != nil {
				rc.rll.Remove(oldest)
				delete(rc.ritems, oldest.Value.(*routeEntry).key)
			}
		}
		rc.ritems[key] = rc.rll.PushFront(&routeEntry{key: key, route: route, parts: parts})
	}
	rc.rmu.Unlock()
	return route, parts, nil
}

// result serves the statement from the cache when its entry's stamp is
// current, joins an in-progress same-stamp fan-out when one exists, and
// otherwise runs fetch (the real fan-out) as the flight leader, publishing
// the answer to its waiters and — if no relevant write intervened — to the
// cache. parts is the statement's touched-partition set from routeFor.
func (rc *readCache) result(key string, parts []int, fetch func() (*f2db.Result, error)) (*f2db.Result, error) {
	for {
		// Sample the stamp before consulting the cache: an entry or flight
		// is usable only if it belongs to this (or a later-sampled) world.
		st := rc.ep.sample(parts)
		rc.mu.Lock()
		if el, ok := rc.items[key]; ok {
			ent := el.Value.(*resultEntry)
			if ent.st.equal(st) {
				rc.ll.MoveToFront(el)
				rc.mu.Unlock()
				rc.met.CacheHits.Add(1)
				return ent.res, nil
			}
			// A relevant write landed since the fill; drop the stale entry
			// lazily.
			rc.ll.Remove(el)
			delete(rc.items, key)
			rc.met.CacheInvalidations.Add(1)
		}
		if f, ok := rc.flights[key]; ok {
			if f.st.equal(st) {
				rc.mu.Unlock()
				rc.met.CacheCoalesced.Add(1)
				<-f.done
				return f.res, f.err
			}
			// A fan-out from an older stamp is still in flight; its answer
			// may predate writes this query must observe. Wait it out and
			// retry rather than racing a second flight under the same key.
			rc.mu.Unlock()
			<-f.done
			continue
		}
		f := &flight{st: st, done: make(chan struct{})}
		rc.flights[key] = f
		rc.mu.Unlock()
		rc.met.CacheMisses.Add(1)

		f.res, f.err = fetch()

		rc.mu.Lock()
		if rc.flights[key] == f {
			delete(rc.flights, key)
		}
		// Fill only when no relevant write was appended during the fan-out:
		// if one was, the shards may have answered before or after applying
		// it, so the result is correct for this caller (a query racing a
		// write may see either side) but must not speak for the new stamp.
		if f.err == nil && rc.ep.sample(parts).equal(st) {
			if el, ok := rc.items[key]; ok {
				ent := el.Value.(*resultEntry)
				ent.st, ent.res = st, f.res
				rc.ll.MoveToFront(el)
			} else {
				if rc.ll.Len() >= rc.cap {
					if oldest := rc.ll.Back(); oldest != nil {
						rc.ll.Remove(oldest)
						delete(rc.items, oldest.Value.(*resultEntry).key)
						rc.met.CacheEvictions.Add(1)
					}
				}
				rc.items[key] = rc.ll.PushFront(&resultEntry{key: key, st: st, res: f.res})
			}
		}
		rc.mu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// len reports the live result-entry count (stats; stale entries linger
// until their key is next looked up, so this is an upper bound on
// servable entries).
func (rc *readCache) len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len()
}
