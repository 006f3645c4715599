// Package coord is the shard-aware serving tier over N f2dbd shards: a
// coordinator that speaks the same Query/Exec surface as an embedded
// engine (it satisfies server.Backend), so f2dbcli -remote and the remote
// workload generator work unchanged against a cluster.
//
// Partitioning model. The engine's maintenance processor advances time
// only when EVERY base series of a batch has its pending value, and
// aggregate nodes derive from all of their base series — so a shard
// holding a subset of the series could never advance or answer aggregates.
// Each shard therefore runs a FULL engine replica over the same dataset
// and configuration, and the shard map partitions the QUERY space instead:
// ShardFor assigns every graph node an owning shard by Fibonacci hashing.
// Single-node statements are routed to the owner (its plan/memo caches and
// lazily re-fit models stay hot for exactly its partition); drill-down
// statements scatter per-member single-node sub-queries to each member's
// owner in parallel and gather the groups in member order. Replicas make
// reads fault-tolerant: if an owner is down or lagging, the query fails
// over to the next caught-up shard in ring order.
//
// Writes and recovery. Every INSERT is appended to an ordered statement
// log; one worker per shard applies the log strictly in order over its
// fclient. Exec returns once at least one shard applied the statement
// (and every other shard either applied it or is marked down); a shard
// that drops mid-stream keeps its cursor and replays the tail on
// reconnect. A restarted shard is detected by the server's start nonce
// (wire.TInfo) and realigned: its engine rebuilt from the snapshot reports
// how many rows it has applied (snapshots persist the counter), and the
// cursor resumes at the matching statement boundary, replaying only the
// tail — deterministic, so the replica converges to the exact same state.
// The log is bounded: entries applied by every participating shard are
// trimmed past a retention window (Options.LogRetain), and a restart
// whose applied count falls behind the trim horizon is fenced dead.
//
// Reads have a statement-keyed fast path (cache.go): a result cache
// invalidated by the write epoch, singleflight coalescing of identical
// concurrent misses, and a route memo — hot statements skip the shard
// fan-out entirely (Options.CacheSize, f2dbd -coord-cache).
package coord

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
)

// ErrClosed is returned by requests on a closed coordinator.
var ErrClosed = errors.New("coord: coordinator closed")

// ErrNoShards is returned when no shard is servable for a query and none
// became servable within Options.QueryWait.
var ErrNoShards = errors.New("coord: no servable shard")

// fibMult is the Fibonacci hashing multiplier (2^64 divided by the golden
// ratio): it spreads consecutive node IDs evenly over the shards.
const fibMult = 0x9E3779B97F4A7C15

// ShardFor maps a graph node ID to its owning shard among n: a Fibonacci
// hash with fixed-point scaling of the top hash bits, so n need not be a
// power of two.
func ShardFor(id, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(id) * fibMult
	return int((h >> 32) * uint64(n) >> 32)
}

// Options tunes a coordinator.
type Options struct {
	// Client tunes every per-shard fclient (pool size, timeouts, backoff,
	// health). Retries defaults to 1 like fclient's own default.
	Client fclient.Options
	// QueryWait bounds how long a query waits for some shard to become
	// servable (e.g. mid-batch, when every shard is momentarily applying
	// the statement log tail). Default 5s.
	QueryWait time.Duration
	// RecoverBackoff paces reconnection probes to a down shard. Default
	// 100ms.
	RecoverBackoff time.Duration
	// MaxFanout caps concurrent sub-queries per drill-down statement.
	// Default 8.
	MaxFanout int
	// CacheSize enables the read fast path (cache.go): an LRU of fully
	// merged query results keyed by normalized statement text and
	// invalidated by write epoch, with singleflight coalescing and a route
	// memo of the same capacity. 0 disables caching entirely — every query
	// pays the shard fan-out.
	CacheSize int
	// LogRetain bounds the retained statement log: entries applied by
	// every non-dead shard are trimmed once more than LogRetain of them
	// are retained, keeping a realignment window for restarting shards
	// behind the newest writes. A shard that restarts with an applied-row
	// count older than the trim horizon is fenced (marked dead). 0 selects
	// the default 4096; negative retains the full log (no trimming).
	// Entries a down-but-not-dead shard still needs are never trimmed.
	LogRetain int
	// Logf, when non-nil, receives shard lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.QueryWait <= 0 {
		out.QueryWait = 5 * time.Second
	}
	if out.RecoverBackoff <= 0 {
		out.RecoverBackoff = 100 * time.Millisecond
	}
	if out.MaxFanout <= 0 {
		out.MaxFanout = 8
	}
	if out.LogRetain == 0 {
		out.LogRetain = 4096
	}
	return out
}

// logEntry is one INSERT statement in the coordinator's ordered log.
type logEntry struct {
	sql string
	// rows is the statement's row count; cumRows the running total through
	// this entry. Cursor realignment matches a restarted engine's applied
	// row counter against these statement boundaries.
	rows    int
	cumRows uint64
	// applied counts shards that accepted the entry; serverErr records the
	// first engine rejection seen by a shard that was current (replicas
	// are deterministic, so one rejection speaks for all).
	applied   int
	serverErr error
}

// shard is one f2dbd replica and its replay state. All fields except the
// immutable ones are guarded by the coordinator mutex.
type shard struct {
	idx    int
	addr   string
	client *fclient.Client

	// cursor is the index of the next log entry to apply. down marks a
	// shard whose worker is probing for reconnection; dead marks a shard
	// abandoned after an unalignable restart. nonce is the server process
	// identity from its last Info.
	cursor int
	down   bool
	dead   bool
	nonce  uint64
}

// Coordinator fans a cluster of f2dbd shards behind the engine's
// Query/Exec surface. It satisfies server.Backend.
type Coordinator struct {
	planner *f2db.Planner
	opts    Options
	met     *Metrics

	// epoch is the global write epoch: incremented when an Exec touches
	// more than one write partition and whenever enough rows accumulated
	// that a maintenance batch may have advanced time on the shards (the
	// event that actually changes query results). partEpochs holds one
	// counter per write partition (ShardFor over base nodes, one partition
	// per shard); a single-partition Exec bumps only its partition, so
	// cached answers for other partitions survive the insert. The read
	// cache serves an entry only while every counter its statement touches
	// matches the fill-time stamp (cache.go); cache may be nil (caching
	// disabled).
	epoch      atomic.Uint64
	partEpochs []atomic.Uint64
	cache      *readCache

	// tele, when non-nil, receives each query's normalized template text —
	// the coordinator-tier attach point for the sibyl workload forecaster
	// (same contract as f2db.DB.SetTelemetry).
	tele atomic.Pointer[teleSink]

	// numBases is the shard graph's base-series count: every numBases
	// accepted rows, a maintenance batch may have completed on the shards.
	numBases int

	mu sync.Mutex
	// pendingRows counts accepted rows modulo numBases (guarded by mu). It
	// conservatively over-approximates batch completion — apply-time
	// rejections make it run ahead of the engines, which costs extra
	// invalidation, never staleness.
	pendingRows int
	cond        *sync.Cond
	log         []*logEntry
	// trimBase is the absolute index of log[0]: trimmed entries advance
	// it instead of renumbering, so shard cursors and Exec bookkeeping
	// stay absolute. trimRows is the cumulative row count through the
	// last trimmed entry — the trim horizon a restarting shard's applied
	// count is fenced against.
	trimBase int
	trimRows uint64
	shards   []*shard
	closed   bool
	wg       sync.WaitGroup
}

// logLen is the absolute log length (entries ever appended). Callers hold
// c.mu.
func (c *Coordinator) logLen() int { return c.trimBase + len(c.log) }

// entry returns the log entry at absolute index i. Callers hold c.mu and
// guarantee trimBase <= i < logLen().
func (c *Coordinator) entry(i int) *logEntry { return c.log[i-c.trimBase] }

// New connects to the shards and starts their replay workers. The planner
// must be built over the same hyper graph (and step duration) the shards
// serve — f2db.NewPlanner over the data set's graph, or DB.Planner from a
// loaded snapshot. Shards that are unreachable at construction start in
// the down state and are picked up by their worker's recovery loop.
func New(planner *f2db.Planner, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coord: no shard addresses")
	}
	opts = opts.withDefaults()
	c := &Coordinator{
		planner: planner,
		opts:    opts,
		met:     newMetrics(addrs),
	}
	c.cond = sync.NewCond(&c.mu)
	c.numBases = planner.NumBaseSeries()
	c.partEpochs = make([]atomic.Uint64, len(addrs))
	if opts.CacheSize > 0 {
		c.cache = newReadCache(opts.CacheSize, &epochs{global: &c.epoch, parts: c.partEpochs}, c.met)
	}
	for i, addr := range addrs {
		s := &shard{idx: i, addr: addr}
		cl, err := fclient.Dial(addr, opts.Client)
		if err != nil {
			// Dial failed cleanly (the fclient pool is closed); build an
			// undialed client for the worker's recovery loop to probe.
			c.logf("shard %d (%s): unreachable at start: %v", i, addr, err)
			cl = mustClient(addr, opts.Client)
			s.down = true
		} else if info, err := cl.Info(); err == nil {
			s.nonce = info.Nonce
			// Seed the batch-completion tracker with the engine's actual
			// mid-batch backlog (accepted rows beyond the completed
			// batches), so the conservative advance detection in Exec is
			// aligned even when the shards start mid-batch. Replicas are
			// identical; the first reachable shard speaks for all.
			if c.numBases > 0 && c.pendingRows == 0 {
				c.pendingRows = int(info.Inserts - info.Batches*uint64(c.numBases))
			}
		} else {
			s.down = true
		}
		s.client = cl
		c.shards = append(c.shards, s)
	}
	for _, s := range c.shards {
		c.wg.Add(1)
		go c.runShard(s)
	}
	return c, nil
}

// mustClient builds a client without Dial's verification ping. It uses
// NewClient, fclient's constructor for lazily-connecting clients.
func mustClient(addr string, opts fclient.Options) *fclient.Client {
	return fclient.NewClient(addr, opts)
}

// Close stops the workers and closes every shard client. Pending log
// entries are dropped; Exec callers waiting on them receive ErrClosed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, s := range c.shards {
		_ = s.client.Close() // fails in-flight worker requests, unblocking them
	}
	c.wg.Wait()
	return nil
}

// Metrics returns the coordinator's live counters.
func (c *Coordinator) Metrics() *Metrics { return c.met }

// teleSink wraps the telemetry interface for atomic storage.
type teleSink struct{ t f2db.QueryTelemetry }

// SetTelemetry attaches (or, with nil, detaches) the workload telemetry
// sink; Query reports each statement's normalized template to it. Safe on
// a live coordinator.
func (c *Coordinator) SetTelemetry(t f2db.QueryTelemetry) {
	if t == nil {
		c.tele.Store(nil)
		return
	}
	c.tele.Store(&teleSink{t: t})
}

// SetCacheCapacity resizes the read cache's result and route LRUs,
// evicting least-recently-used entries when shrinking. Returns the result
// entries evicted; no-op (returning 0) when caching is disabled.
func (c *Coordinator) SetCacheCapacity(entries int) int {
	if c.cache == nil {
		return 0
	}
	c.met.CacheResizes.Add(1)
	return c.cache.setCapacity(entries)
}

// --- write path ----------------------------------------------------------

// Exec appends the INSERT to the statement log and waits until at least
// one shard applied it and every other shard either applied it or is
// down/dead (those replay it on recovery). An engine rejection from a
// current shard is authoritative (replicas are deterministic) and is
// returned as-is.
func (c *Coordinator) Exec(sql string) error {
	rows, bases, err := c.planner.RouteExecNodes(sql)
	if err != nil {
		// Same resolution code as the shard engines: the rejection text
		// matches what any shard would answer, and a statement the engines
		// would reject never reaches the log (so the logged row counts the
		// realignment protocol fences against stay exact).
		return err
	}
	// Attribute the statement to its write partition: a single-partition
	// INSERT only needs its partition epoch bumped.
	part, multi := -1, false
	for _, id := range bases {
		p := ShardFor(id, len(c.shards))
		if part == -1 {
			part = p
		} else if p != part {
			multi = true
			break
		}
	}
	c.met.Execs.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	prev := c.trimRows
	if n := len(c.log); n > 0 {
		prev = c.log[n-1].cumRows
	}
	e := &logEntry{sql: sql, rows: rows, cumRows: prev + uint64(rows)}
	idx := c.logLen()
	c.log = append(c.log, e)
	// Bump the write epochs under the same lock hold as the append: any
	// query that samples the new stamp fans out (queryNode only accepts a
	// shard caught up with the grown log), so no cached pre-write answer
	// can be served to a caller that issued its query after Exec returned.
	// Pending inserts change no query results until a maintenance batch
	// advances time, so a single-partition statement bumps only its
	// partition counter; once enough rows accumulated that a batch may
	// have completed on the shards — and for multi-partition statements —
	// the global counter (part of every stamp) is bumped instead.
	c.pendingRows += rows
	advanced := false
	for c.numBases > 0 && c.pendingRows >= c.numBases {
		c.pendingRows -= c.numBases
		advanced = true
	}
	if advanced || multi || part < 0 || len(c.partEpochs) == 0 {
		c.epoch.Add(1)
		c.met.EpochGlobalBumps.Add(1)
	} else {
		c.partEpochs[part].Add(1)
		c.met.EpochPartBumps.Add(1)
	}
	c.cond.Broadcast()
	for {
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		if e.applied > 0 {
			// Other shards keep applying asynchronously (or replay later).
			c.mu.Unlock()
			return nil
		}
		settled := true
		for _, s := range c.shards {
			if !s.down && !s.dead && s.cursor <= idx {
				settled = false
				break
			}
		}
		if settled {
			err := e.serverErr
			c.mu.Unlock()
			if err != nil {
				return err
			}
			// Every shard is down and none processed the entry; it stays
			// logged and will apply on recovery, but the caller cannot know
			// when.
			return fmt.Errorf("%w: insert logged but not yet applied", ErrNoShards)
		}
		c.cond.Wait()
	}
}

// runShard is the per-shard worker: it applies log entries strictly in
// cursor order, and on transport failure probes the shard's Info until it
// answers, realigning the cursor if the process restarted.
func (c *Coordinator) runShard(s *shard) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for !c.closed && !s.down && !s.dead && s.cursor >= c.logLen() {
			c.cond.Wait()
		}
		if c.closed || s.dead {
			c.mu.Unlock()
			return
		}
		if s.down {
			c.mu.Unlock()
			if !c.recoverShard(s) {
				return
			}
			continue
		}
		idx := s.cursor
		e := c.entry(idx)
		c.mu.Unlock()

		start := time.Now()
		err := s.client.Exec(e.sql)
		sm := &c.met.Shards[s.idx]
		sm.Requests.Add(1)
		sm.Latency.Observe(time.Since(start))

		c.mu.Lock()
		switch {
		case err == nil:
			s.cursor = idx + 1
			e.applied++
			c.maybeTrimLocked()
		case errors.Is(err, fclient.ErrClosed):
			// Coordinator shutdown closed the client under us; the loop head
			// exits on the closed flag after the broadcast below.
			c.markDownLocked(s, err)
		case !fclient.IsRetryable(err):
			// The engine processed and rejected the statement. If no
			// replica accepted it this is the authoritative outcome; if one
			// did, this shard is replaying a statement it had already
			// applied before an ambiguous failure, and the rejection just
			// confirms the earlier apply.
			s.cursor = idx + 1
			if e.applied == 0 && e.serverErr == nil {
				e.serverErr = err
			} else {
				sm.ReplayRejects.Add(1)
			}
			c.maybeTrimLocked()
		default:
			sm.Errors.Add(1)
			c.markDownLocked(s, err)
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// maybeTrimLocked drops log entries that every shard still participating
// in replay has passed, keeping a LogRetain-entry realignment window
// behind the newest write. Trimming advances trimBase/trimRows instead of
// renumbering, so absolute cursors and cumRows boundaries are untouched;
// down shards hold the horizon at their frozen cursor (they resume from
// it on recovery), and only dead shards are ignored. Callers hold c.mu.
func (c *Coordinator) maybeTrimLocked() {
	if c.opts.LogRetain < 0 {
		return
	}
	trimTo := c.logLen() - c.opts.LogRetain
	for _, s := range c.shards {
		if s.dead {
			continue
		}
		if s.cursor < trimTo {
			trimTo = s.cursor
		}
	}
	if trimTo <= c.trimBase {
		return
	}
	k := trimTo - c.trimBase
	c.trimRows = c.log[k-1].cumRows
	// Nil the dropped slots so the entries free immediately; the head of
	// the backing array is reclaimed when append next reallocates.
	for i := 0; i < k; i++ {
		c.log[i] = nil
	}
	c.log = c.log[k:]
	c.trimBase = trimTo
	c.met.LogTrimmed.Add(int64(k))
}

// markDownLocked transitions a shard to the down state (idempotent).
// Callers hold c.mu.
func (c *Coordinator) markDownLocked(s *shard, cause error) {
	if !s.down && !s.dead {
		s.down = true
		c.met.ShardsDown.Add(1)
		c.logf("shard %d (%s): down: %v", s.idx, s.addr, cause)
		c.cond.Broadcast()
	}
}

// recoverShard probes a down shard until it answers an Info, then brings
// it back: same nonce → the process (and its engine state) survived, the
// cursor stands; new nonce → the process restarted from the snapshot, so
// the cursor realigns to the statement boundary matching the engine's
// applied-row counter. Returns false when the coordinator closed or the
// shard was abandoned.
func (c *Coordinator) recoverShard(s *shard) bool {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		c.mu.Unlock()
		info, err := s.client.Info()
		if err != nil {
			time.Sleep(c.opts.RecoverBackoff)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		if s.nonce != 0 && info.Nonce == s.nonce {
			// Same process: a network blip, not a restart. The in-doubt
			// statement (if any) is re-sent from the unchanged cursor; a
			// duplicate rejection is absorbed as a replay confirmation.
			s.down = false
		} else {
			cursor, ok := c.realignLocked(info.Inserts)
			if !ok {
				s.dead = true
				c.met.ShardsDead.Add(1)
				c.met.ShardsDown.Add(-1) // dead, no longer reconnecting
				if info.Inserts < c.trimRows {
					// Fenced: the entries this shard would need to replay
					// were trimmed. It cannot converge by log replay alone
					// (snapshot shipping is the documented extension).
					c.logf("shard %d (%s): restarted with insert count %d behind the trim horizon (%d rows trimmed); fenced",
						s.idx, s.addr, info.Inserts, c.trimRows)
				} else {
					c.logf("shard %d (%s): restarted with unalignable insert count %d; abandoned",
						s.idx, s.addr, info.Inserts)
				}
				c.cond.Broadcast()
				c.mu.Unlock()
				return false
			}
			c.logf("shard %d (%s): restarted (nonce %x→%x), replaying log from entry %d",
				s.idx, s.addr, s.nonce, info.Nonce, cursor)
			c.met.Shards[s.idx].Replays.Add(1)
			s.cursor = cursor
			s.nonce = info.Nonce
			s.down = false
		}
		c.met.ShardsDown.Add(-1)
		c.cond.Broadcast()
		c.mu.Unlock()
		return true
	}
}

// realignLocked maps an engine's applied-row counter to the absolute log
// index of the next statement to apply. Snapshots persist the counter, so
// a shard restarted from a mid-history snapshot reports exactly the rows
// its image contains and lands on the matching statement boundary. Counts
// that fall inside a statement (a partial apply, impossible for
// deterministic replicas), beyond the log, or behind the trim horizon
// (the entries it would need are gone) are unalignable. Callers hold c.mu.
func (c *Coordinator) realignLocked(inserts uint64) (int, bool) {
	// Valid boundaries are the trim horizon itself and each retained
	// entry's cumRows; with an untrimmed log the horizon is 0 rows at
	// entry 0, i.e. a fresh restart replaying everything.
	if inserts == c.trimRows {
		return c.trimBase, true
	}
	if inserts < c.trimRows {
		return 0, false
	}
	for i, e := range c.log {
		if e.cumRows == inserts {
			return c.trimBase + i + 1, true
		}
		if e.cumRows > inserts {
			return 0, false
		}
	}
	return 0, false
}

// --- read path -----------------------------------------------------------

// Query routes a SELECT: single-node statements (and EXPLAIN, whose
// response shape only the owner should decide) go verbatim to the target
// node's owner; drill-downs scatter per-member sub-queries to each
// member's owner and gather the groups in member order. Rejections carry
// the exact engine error a single process would produce.
//
// With Options.CacheSize set, hot statements never touch the shards: the
// route comes from the memo and the merged result from the epoch-guarded
// result cache, with concurrent identical misses coalesced into one
// fan-out (cache.go).
func (c *Coordinator) Query(sql string) (*f2db.Result, error) {
	if c.cache == nil {
		route, err := c.planner.RouteQuery(sql)
		if err != nil {
			return nil, err
		}
		c.met.Queries.Add(1)
		if t := c.tele.Load(); t != nil {
			t.t.ObserveTemplate(f2db.NormalizeSQL(sql))
		}
		return c.runRoute(route, sql)
	}
	key := f2db.NormalizeSQL(sql)
	route, parts, err := c.cache.routeFor(key, sql, c.planner)
	if err != nil {
		return nil, err
	}
	c.met.Queries.Add(1)
	if t := c.tele.Load(); t != nil {
		t.t.ObserveTemplate(key)
	}
	return c.cache.result(key, parts, func() (*f2db.Result, error) {
		return c.runRoute(route, sql)
	})
}

// runRoute executes a planned route against the shards: the uncached
// fan-out path, and the fetch function behind every cache miss.
func (c *Coordinator) runRoute(route *f2db.Route, sql string) (*f2db.Result, error) {
	if route.Explain || len(route.Nodes) == 1 {
		return c.queryNode(route.Nodes[0], sql)
	}
	return c.scatterGather(route)
}

// scatterGather fans the per-member sub-queries out in parallel (bounded
// by MaxFanout) and merges the single-node results into the drill-down
// result shape. Merging is deterministic: groups are placed by member
// index, and the first group supplies the convenience fields, exactly as
// the engine's executor fills them.
func (c *Coordinator) scatterGather(route *f2db.Route) (*f2db.Result, error) {
	n := len(route.Nodes)
	c.met.Fanouts.Add(1)
	c.met.FanoutSubqueries.Add(int64(n))
	c.met.noteFanWidth(n)

	results := make([]*f2db.Result, n)
	errs := make([]error, n)
	sem := make(chan struct{}, c.opts.MaxFanout)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = c.queryNode(route.Nodes[i], route.SubSQL[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &f2db.Result{
		Forecast: results[0].Forecast,
		Plan:     results[0].Plan,
		Groups:   make([]f2db.Group, n),
	}
	for i, r := range results {
		out.Groups[i] = f2db.Group{
			Node:    r.Node,
			NodeKey: r.NodeKey,
			Member:  route.Members[i],
			Rows:    r.Rows,
		}
	}
	out.Node = out.Groups[0].Node
	out.NodeKey = out.Groups[0].NodeKey
	out.Rows = out.Groups[0].Rows
	return out, nil
}

// queryNode sends one statement to the owner of the node, failing over in
// ring order to the next servable shard. A shard is servable when it is
// up and its replay cursor has caught the log tail — a lagging replica
// would answer from an older time point. If no shard is servable the call
// waits (bounded by QueryWait) for one to catch up, which bridges the
// moment when all replicas are mid-apply.
func (c *Coordinator) queryNode(node int, sql string) (*f2db.Result, error) {
	owner := ShardFor(node, len(c.shards))
	deadline := time.Now().Add(c.opts.QueryWait)
	for {
		var lastErr error
		tried := false
		for trial := 0; trial < len(c.shards); trial++ {
			s := c.shards[(owner+trial)%len(c.shards)]
			if !c.servable(s) {
				continue
			}
			if trial > 0 {
				c.met.Failovers.Add(1)
			}
			tried = true
			sm := &c.met.Shards[s.idx]
			start := time.Now()
			res, err := s.client.Query(sql)
			sm.Requests.Add(1)
			sm.Latency.Observe(time.Since(start))
			if err == nil {
				return res, nil
			}
			if !fclient.IsRetryable(err) {
				// The engine processed and rejected it; replicas agree.
				return nil, err
			}
			sm.Errors.Add(1)
			c.mu.Lock()
			c.markDownLocked(s, err)
			c.mu.Unlock()
			lastErr = err
		}
		if time.Now().After(deadline) {
			if lastErr != nil {
				return nil, fmt.Errorf("%w: node %d (%s): %v", ErrNoShards, node, c.planner.NodeKey(node), lastErr)
			}
			return nil, fmt.Errorf("%w: node %d (%s)", ErrNoShards, node, c.planner.NodeKey(node))
		}
		if !tried {
			// Nothing servable right now (replicas lagging or recovering):
			// wait for a worker to make progress rather than spinning.
			c.waitProgress()
		}
	}
}

// waitProgress blocks briefly until some shard state changes (bounded so a
// wedged cluster cannot hang queries past QueryWait checks).
func (c *Coordinator) waitProgress() {
	done := make(chan struct{})
	go func() {
		c.mu.Lock()
		c.cond.Wait()
		c.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(50 * time.Millisecond):
		// The cond.Wait goroutine stays parked until the next broadcast;
		// wake it so it does not accumulate.
		c.cond.Broadcast()
		<-done
	}
}

// servable reports whether a shard can answer queries at the current time
// point: up, not abandoned, and caught up with the statement log.
func (c *Coordinator) servable(s *shard) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !s.down && !s.dead && s.cursor == c.logLen()
}

// CaughtUp reports whether every live shard has applied the entire
// statement log (tests and operators poll it after recovery).
func (c *Coordinator) CaughtUp() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.dead {
			continue
		}
		if s.down || s.cursor != c.logLen() {
			return false
		}
	}
	return true
}

// --- Backend surface -----------------------------------------------------

// StatsText renders the cluster state for TStats requests.
func (c *Coordinator) StatsText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	servable := 0
	for _, s := range c.shards {
		if !s.down && !s.dead && s.cursor == c.logLen() {
			servable++
		}
	}
	b = fmt.Appendf(b, "coordinator shards=%d servable=%d log=%d retained=%d trimmed=%d\n",
		len(c.shards), servable, c.logLen(), len(c.log), c.trimBase)
	if c.cache != nil {
		b = fmt.Appendf(b, "cache: hits=%d misses=%d coalesced=%d evictions=%d invalidations=%d route-hits=%d size=%d epoch=%d part-bumps=%d global-bumps=%d resizes=%d\n",
			c.met.CacheHits.Load(), c.met.CacheMisses.Load(), c.met.CacheCoalesced.Load(),
			c.met.CacheEvictions.Load(), c.met.CacheInvalidations.Load(),
			c.met.RouteMemoHits.Load(), c.cache.len(), c.epoch.Load(),
			c.met.EpochPartBumps.Load(), c.met.EpochGlobalBumps.Load(), c.met.CacheResizes.Load())
	}
	for _, s := range c.shards {
		state := "up"
		switch {
		case s.dead:
			state = "dead"
		case s.down:
			state = "down"
		case s.cursor < c.logLen():
			state = "lagging"
		}
		sm := &c.met.Shards[s.idx]
		b = fmt.Appendf(b, "shard %d addr=%s state=%s cursor=%d/%d requests=%d errors=%d\n",
			s.idx, s.addr, state, s.cursor, c.logLen(), sm.Requests.Load(), sm.Errors.Load())
	}
	return string(b)
}

// Counts reports the coordinator's applied progress for TInfo: total rows
// across fully-settled log entries, and 0 batches (batch accounting lives
// in the shard engines).
func (c *Coordinator) Counts() (inserts, batches uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.log); n > 0 {
		return c.log[n-1].cumRows, 0
	}
	return c.trimRows, 0
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}
