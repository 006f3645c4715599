package f2db

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"

	"cubefc/internal/cube"
)

// This file implements the forecast-query processor of Section V: a small
// SQL dialect with the paper's AS OF extension,
//
//	SELECT time, sales      FROM facts WHERE product = 'P4' AND city = 'C4'
//	                        AS OF now() + '1 day'
//	SELECT time, SUM(sales) FROM facts WHERE product = 'P4' AND region = 'R2'
//	                        GROUP BY time AS OF now() + '1 day'
//
// A query is rewritten to the referenced node of the time-series graph;
// the executor loads the necessary models and derives the forecast without
// accessing base data. Queries without AS OF return the stored history of
// the node.

// QueryRow is one output row: the time index of the observation or
// forecast step and its (possibly aggregated) measure value. Lo/Hi carry
// the prediction interval when the query requested one (WITH INTERVAL n).
type QueryRow struct {
	T      int
	Value  float64
	Lo, Hi float64
}

// Group is the result for one hyper-graph node of a (possibly multi-node)
// query. A query with GROUP BY over a hierarchy level describes several
// nodes (Section II-A: "a query describes one or several nodes"), one per
// member value at that level.
type Group struct {
	// Node is the hyper-graph node this group was rewritten to.
	Node int
	// NodeKey is its canonical coordinate key.
	NodeKey string
	// Member is the grouping member value ("" for single-node queries).
	Member string
	// Rows holds the history or forecast values.
	Rows []QueryRow
}

// Result is the output of a query.
type Result struct {
	// Node, NodeKey and Rows describe the first (often only) group, kept
	// as convenience accessors.
	Node    int
	NodeKey string
	Rows    []QueryRow
	// Groups holds all result groups of the query in member order.
	Groups []Group
	// Forecast marks AS OF queries.
	Forecast bool
	// Plan describes the derivation used (EXPLAIN output).
	Plan string
}

// Exec executes a statement that is not a query. Supported:
//
//	INSERT INTO facts VALUES ('<member1>', ..., <measure>)[, (...), ...]
//
// with one member value per dimension in schema order. Inserts are batched
// by the maintenance processor (Section V); a multi-row INSERT takes the
// batched write path (InsertBatch), which locks the pending batch once for
// the whole statement instead of once per row.
func (db *DB) Exec(sql string) error {
	stmt, err := parseInsert(sql)
	if err != nil {
		return err
	}
	if len(stmt.rows) == 1 {
		return db.Insert(stmt.rows[0].members, stmt.rows[0].value)
	}
	// Multi-row statement: resolve every row to its base node up front so a
	// malformed row rejects the whole statement, then batch-insert.
	values := make(map[int]float64, len(stmt.rows))
	for _, row := range stmt.rows {
		id, err := db.resolveBase(row.members)
		if err != nil {
			return err
		}
		if _, dup := values[id]; dup {
			return fmt.Errorf("f2db: duplicate row for base series %v in INSERT", row.members)
		}
		values[id] = row.value
	}
	return db.InsertBatch(values)
}

// insertStmt is a parsed INSERT statement: the target table and one or more
// (members..., measure) rows. Parsing is purely syntactic — member values
// are resolved against the graph by Exec, not here.
type insertStmt struct {
	table string
	rows  []insertRow
}

type insertRow struct {
	members []string
	value   float64
}

// String renders the statement back into the dialect in canonical form:
// parsing the rendered text yields an identical statement (the round-trip
// property FuzzParseInsert checks). Measures render with FormatFloat 'f' —
// never scientific notation, whose '+'/'-' the lexer's ident token cannot
// re-lex — and a +Inf measure (reachable through ParseFloat accepting the
// ident "Inf") renders as "Inf" for the same reason.
func (s *insertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.table)
	b.WriteString(" VALUES ")
	for i, row := range s.rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for _, m := range row.members {
			b.WriteString("'")
			b.WriteString(m)
			b.WriteString("', ")
		}
		if math.IsInf(row.value, 1) {
			b.WriteString("Inf")
		} else {
			b.WriteString(strconv.FormatFloat(row.value, 'f', -1, 64))
		}
		b.WriteString(")")
	}
	return b.String()
}

// parseInsert parses an INSERT statement:
//
//	INSERT INTO <table> VALUES ('<member1>', ..., <measure>)[, (...), ...]
//
// Each row lists one member value per dimension (checked by Exec, not the
// parser) followed by exactly one numeric measure.
func parseInsert(sql string) (*insertStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if err := p.expectKw("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("f2db: expected table name, got %q", tbl.text)
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	stmt := &insertStmt{table: tbl.text}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row insertRow
		haveValue := false
		for {
			t := p.next()
			switch t.kind {
			case tokString:
				if haveValue {
					return nil, fmt.Errorf("f2db: member value %q after measure", t.text)
				}
				row.members = append(row.members, t.text)
			case tokIdent:
				if haveValue {
					return nil, fmt.Errorf("f2db: second measure %q in row", t.text)
				}
				v, err := strconv.ParseFloat(t.text, 64)
				if err != nil {
					return nil, fmt.Errorf("f2db: expected numeric measure, got %q", t.text)
				}
				row.value = v
				haveValue = true
			default:
				return nil, fmt.Errorf("f2db: unexpected token %q in VALUES", t.text)
			}
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if !haveValue {
			return nil, fmt.Errorf("f2db: INSERT misses the measure value")
		}
		stmt.rows = append(stmt.rows, row)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("f2db: trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// Query parses and executes a (forecast) query. Queries constrained to one
// coordinate return a single group; a GROUP BY over a hierarchy level
// returns one group per member value at that level (drill-down).
//
// Repeated query texts skip the parse and rewrite phases entirely: planning
// (lexing, parsing, node resolution, horizon translation) depends only on
// immutable engine state, so the finished plan is kept in a small LRU keyed
// by the whitespace-normalized query text and shared across goroutines.
//
// Queries execute under the engine's shared read lock and run concurrently
// with each other; only a query that needs a lazy model re-estimation
// retries under the exclusive write lock.
func (db *DB) Query(sql string) (*Result, error) {
	plan, key, err := db.planQuery(sql)
	if err != nil {
		return nil, err
	}
	if t := db.tele.Load(); t != nil {
		t.t.ObserveTemplate(key)
	}
	g := db.rLock()
	res, err := db.execPlan(plan, g)
	db.unlock(g)
	if err != errNeedsReestimate {
		return res, err
	}
	// Lazy re-estimation: re-fit the invalidated source models of the
	// plan's nodes off the exclusive lock, then retry under it (see
	// ForecastNode).
	ids := make([]int, len(plan.nodes))
	for i, n := range plan.nodes {
		ids[i] = n.ID
	}
	db.reestimateMany(db.invalidSources(ids))
	g = db.wLock()
	defer db.unlock(g)
	return db.execPlan(plan, g)
}

// queryPlan is a fully resolved SELECT: the parsed statement, the graph
// nodes it describes, the grouping member per node and the forecast horizon
// in steps. Every field is immutable after construction, so a cached plan
// is safe to execute from any number of goroutines. Planning needs no
// engine lock: query rewrite only reads the graph structure and the
// configuration's scheme table, both fixed while the engine is open.
type queryPlan struct {
	stmt    *selectStmt
	nodes   []*cube.Node
	keys    []string // pre-rendered node coordinate keys (Coord.Key is hot)
	members []string
	horizon int // forecast steps; 0 for historical queries
}

// planQuery returns the resolved plan for a query text, from the plan cache
// when possible, along with the normalized cache key (the workload-template
// identity the telemetry hook reports — computed here so the hook never
// re-normalizes on the hot path; empty when neither the cache nor telemetry
// needs it). Only successfully planned statements are cached; error results
// are recomputed (they are not on the hot path).
func (db *DB) planQuery(sql string) (*queryPlan, string, error) {
	var key string
	if db.plans != nil || db.tele.Load() != nil {
		key = NormalizeSQL(sql)
	}
	if db.plans != nil {
		if plan, ok := db.plans.get(key); ok {
			db.met.planHits.Add(1)
			return plan, key, nil
		}
	}
	stmt, err := parseQuery(sql)
	if err != nil {
		return nil, "", err
	}
	plan, err := db.buildPlan(stmt)
	if err != nil {
		return nil, "", err
	}
	if db.plans != nil {
		db.met.planMisses.Add(1)
		if db.plans.put(key, plan) {
			db.met.planEvictions.Add(1)
		}
	}
	return plan, key, nil
}

// buildPlan rewrites a parsed SELECT into its plan: the referenced node
// set (Section V: "a query is rewritten to the referenced node of the time
// series graph") and the horizon in steps.
func (db *DB) buildPlan(stmt *selectStmt) (*queryPlan, error) {
	var err error
	plan := &queryPlan{stmt: stmt}
	if stmt.groupLevel != "" {
		plan.nodes, plan.members, err = resolveGroupNodesIn(db.graph, stmt)
	} else {
		var n *cube.Node
		n, err = resolveNodeIn(db.graph, stmt)
		plan.nodes, plan.members = []*cube.Node{n}, []string{""}
	}
	if err != nil {
		return nil, err
	}
	if stmt.horizon != "" && !stmt.explain {
		plan.horizon, err = parseHorizonIn(db.stepDuration, stmt.horizon)
		if err != nil {
			return nil, err
		}
	}
	plan.keys = make([]string, len(plan.nodes))
	for i, n := range plan.nodes {
		plan.keys[i] = n.Key(db.graph.Dims)
	}
	return plan, nil
}

// execPlan executes a resolved plan. Locking contract as
// forecastIntervalLocked: the guard witnesses the engine lock, and only an
// exclusive guard may lazily re-estimate.
func (db *DB) execPlan(plan *queryPlan, g guard) (*Result, error) {
	stmt := plan.stmt
	res := &Result{Node: plan.nodes[0].ID, NodeKey: plan.keys[0]}
	if stmt.explain || stmt.horizon == "" {
		res.Plan = db.explainNode(plan.nodes[0].ID)
	}
	if stmt.explain {
		return res, nil
	}
	res.Forecast = stmt.horizon != ""
	for i, n := range plan.nodes {
		rows, err := db.buildRows(n, stmt, plan.horizon, g)
		if err != nil {
			return nil, err
		}
		res.Groups = append(res.Groups, Group{
			Node:    n.ID,
			NodeKey: plan.keys[i],
			Member:  plan.members[i],
			Rows:    rows,
		})
	}
	res.Rows = res.Groups[0].Rows
	return res, nil
}

// explainNode renders the derivation plan of a node.
func (db *DB) explainNode(id int) string {
	sc, ok := db.cfg.Schemes[id]
	if !ok {
		return "no scheme assigned"
	}
	keys := make([]string, len(sc.Sources))
	for i, s := range sc.Sources {
		keys[i] = db.graph.Node(s).Key(db.graph.Dims)
	}
	return fmt.Sprintf("%s from [%s] weight %.6f", sc.Kind, strings.Join(keys, ", "), sc.K)
}

// buildRows produces the output rows for one node: the stored history for
// historical queries, or the derived forecast (optionally with prediction
// intervals) for AS OF queries. The AVG aggregate divides the SUM values
// by the number of base series covered by the node.
func (db *DB) buildRows(n *cube.Node, stmt *selectStmt, h int, g guard) ([]QueryRow, error) {
	scale := 1.0
	if stmt.agg == "avg" {
		scale = 1 / float64(db.baseCounts[n.ID])
	}
	if stmt.horizon == "" {
		vals := n.Series.Values[:db.graph.Length]
		rows := make([]QueryRow, len(vals))
		for i, v := range vals {
			rows[i] = QueryRow{T: i, Value: v * scale}
		}
		return rows, nil
	}
	point, lo, hi, err := db.forecastIntervalLocked(g, n.ID, h, stmt.interval)
	if err != nil {
		return nil, err
	}
	rows := make([]QueryRow, len(point))
	for i, v := range point {
		rows[i] = QueryRow{T: db.graph.Length + i, Value: v * scale}
		if lo != nil {
			rows[i].Lo = lo[i] * scale
			rows[i].Hi = hi[i] * scale
		}
	}
	return rows, nil
}

// resolveGroupNodesIn resolves a GROUP BY <level> query against a graph:
// the named level must belong to a dimension not constrained in the WHERE
// clause; one node per member value at that level is returned,
// member-ordered. Resolution needs only the immutable graph structure — no
// engine — so the cluster coordinator's Planner shares this exact code
// path with the engine's query rewrite (bit-identical node sets and member
// order are what make scatter-gather merges comparable to a single-process
// run).
func resolveGroupNodesIn(g *cube.Graph, stmt *selectStmt) ([]*cube.Node, []string, error) {
	dims := g.Dims
	groupDim, groupLvl := -1, -1
	for d := range dims {
		if lvl := dims[d].LevelIndex(stmt.groupLevel); lvl >= 0 && lvl < dims[d].AllLevel() {
			groupDim, groupLvl = d, lvl
			break
		}
	}
	if groupDim < 0 {
		return nil, nil, fmt.Errorf("f2db: unknown GROUP BY attribute %q", stmt.groupLevel)
	}
	coord := make(cube.Coord, len(dims))
	bound := make([]bool, len(dims))
	for d := range dims {
		coord[d] = cube.Cell{Level: dims[d].AllLevel()}
	}
	for _, p := range stmt.preds {
		found := false
		for d := range dims {
			lvl := dims[d].LevelIndex(p.attr)
			if lvl < 0 || lvl >= dims[d].AllLevel() {
				continue
			}
			if d == groupDim {
				return nil, nil, fmt.Errorf("f2db: dimension %q is both grouped and constrained", dims[d].Name)
			}
			if bound[d] {
				return nil, nil, fmt.Errorf("f2db: dimension %q constrained twice (attribute %q)", dims[d].Name, p.attr)
			}
			coord[d] = cube.Cell{Level: lvl, Value: p.value}
			bound[d] = true
			found = true
			break
		}
		if !found {
			return nil, nil, fmt.Errorf("f2db: unknown attribute %q in WHERE clause", p.attr)
		}
	}
	// Collect the nodes matching the pattern with the grouped dimension
	// at the requested level.
	var nodes []*cube.Node
	var members []string
	for id := 0; id < g.NumNodes(); id++ {
		c := g.CoordOf(id)
		if c[groupDim].Level != groupLvl {
			continue
		}
		match := true
		for d := range dims {
			if d == groupDim {
				continue
			}
			if c[d] != coord[d] {
				match = false
				break
			}
		}
		if match {
			nodes = append(nodes, g.Node(id))
			members = append(members, c[groupDim].Value)
		}
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("f2db: no time series match GROUP BY %s", stmt.groupLevel)
	}
	sort.Sort(byMember{nodes, members})
	return nodes, members, nil
}

// byMember sorts parallel node/member slices by member value.
type byMember struct {
	nodes   []*cube.Node
	members []string
}

func (b byMember) Len() int { return len(b.nodes) }
func (b byMember) Swap(i, j int) {
	b.nodes[i], b.nodes[j] = b.nodes[j], b.nodes[i]
	b.members[i], b.members[j] = b.members[j], b.members[i]
}
func (b byMember) Less(i, j int) bool { return b.members[i] < b.members[j] }

// resolveNodeIn rewrites the WHERE clause into a graph coordinate: every
// predicate attribute must name a hierarchy level of some dimension;
// unconstrained dimensions aggregate to ALL. Engine-free for the same
// reason as resolveGroupNodesIn.
func resolveNodeIn(g *cube.Graph, stmt *selectStmt) (*cube.Node, error) {
	dims := g.Dims
	coord := make(cube.Coord, len(dims))
	bound := make([]bool, len(dims))
	for d := range dims {
		coord[d] = cube.Cell{Level: dims[d].AllLevel()}
	}
	for _, p := range stmt.preds {
		found := false
		for d := range dims {
			lvl := dims[d].LevelIndex(p.attr)
			if lvl < 0 || lvl >= dims[d].AllLevel() {
				continue
			}
			if bound[d] {
				return nil, fmt.Errorf("f2db: dimension %q constrained twice (attribute %q)", dims[d].Name, p.attr)
			}
			coord[d] = cube.Cell{Level: lvl, Value: p.value}
			bound[d] = true
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("f2db: unknown attribute %q in WHERE clause", p.attr)
		}
	}
	n := g.Lookup(coord)
	if n == nil {
		return nil, fmt.Errorf("f2db: no time series for %s", coord.Key(dims))
	}
	return n, nil
}

// parseHorizonIn translates an AS OF interval like "1 day" or "6 steps"
// into a number of forecast steps using the given step duration.
func parseHorizonIn(step time.Duration, interval string) (int, error) {
	fields := strings.Fields(strings.TrimSpace(interval))
	if len(fields) != 2 {
		return 0, fmt.Errorf("f2db: malformed AS OF interval %q (want '<n> <unit>')", interval)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("f2db: malformed AS OF count %q", fields[0])
	}
	unit := strings.TrimSuffix(strings.ToLower(fields[1]), "s")
	var d time.Duration
	switch unit {
	case "step":
		return n, nil
	case "hour":
		d = time.Hour
	case "day":
		d = 24 * time.Hour
	case "week":
		d = 7 * 24 * time.Hour
	case "month":
		d = 30 * 24 * time.Hour
	case "quarter":
		d = 91 * 24 * time.Hour
	case "year":
		d = 365 * 24 * time.Hour
	default:
		return 0, fmt.Errorf("f2db: unknown AS OF unit %q", fields[1])
	}
	steps := int(float64(n) * float64(d) / float64(step))
	if steps < 1 {
		steps = 1
	}
	return steps, nil
}

// --- parsing ------------------------------------------------------------

type predicate struct {
	attr  string
	value string
}

type selectStmt struct {
	columns    []string
	table      string
	preds      []predicate
	groupBy    bool    // GROUP BY time present
	groupLevel string  // GROUP BY <hierarchy level> (drill-down), "" if none
	agg        string  // "sum" (default), "avg"
	horizon    string  // AS OF interval text, "" for historical queries
	interval   float64 // WITH INTERVAL <percent> confidence, 0 = off
	explain    bool
}

// String renders the statement back into the dialect in canonical form:
// parsing the rendered text yields an identical statement (the round-trip
// property FuzzParseSQL checks). Member values are always quoted, GROUP BY
// emits time before the drill-down level — both normalizations the parser
// already applies.
func (s *selectStmt) String() string {
	var b strings.Builder
	if s.explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	for i, col := range s.columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(col)
	}
	b.WriteString(" FROM ")
	b.WriteString(s.table)
	for i, p := range s.preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.attr)
		b.WriteString(" = '")
		b.WriteString(p.value)
		b.WriteString("'")
	}
	if s.groupBy || s.groupLevel != "" {
		b.WriteString(" GROUP BY ")
		switch {
		case s.groupBy && s.groupLevel != "":
			b.WriteString("time, ")
			b.WriteString(s.groupLevel)
		case s.groupBy:
			b.WriteString("time")
		default:
			b.WriteString(s.groupLevel)
		}
	}
	if s.horizon != "" {
		b.WriteString(" AS OF now() + '")
		b.WriteString(s.horizon)
		b.WriteString("'")
	}
	if s.interval > 0 {
		b.WriteString(" WITH INTERVAL ")
		// 'f' (never scientific notation): the lexer's ident token has no
		// '+'/'-', so "1e-05" would not re-lex.
		b.WriteString(strconv.FormatFloat(s.interval, 'f', -1, 64))
	}
	return b.String()
}

type token struct {
	kind tokenKind
	text string
}

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokPunct
	tokEOF
)

func lex(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("f2db: unterminated string literal at offset %d", i)
			}
			out = append(out, token{tokString, s[i+1 : j]})
			i = j + 1
		case c == ',' || c == '(' || c == ')' || c == '=' || c == '+' || c == '*':
			out = append(out, token{tokPunct, string(c)})
			i++
		case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.':
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_' || s[j] == '.') {
				j++
			}
			out = append(out, token{tokIdent, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("f2db: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{tokEOF, ""})
	return out, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
func (p *parser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("f2db: expected %s, got %q", strings.ToUpper(kw), p.peek().text)
	}
	p.next()
	return nil
}
func (p *parser) expectPunct(ch string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != ch {
		return fmt.Errorf("f2db: expected %q, got %q", ch, t.text)
	}
	p.next()
	return nil
}

// parseQuery parses an optional EXPLAIN prefix followed by a SELECT with
// the AS OF extension.
func parseQuery(sql string) (*selectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt := &selectStmt{}
	if p.isKw("explain") {
		p.next()
		stmt.explain = true
	}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	// Select list: idents, optional aggregate function call, or *.
	for {
		t := p.next()
		switch {
		case t.kind == tokPunct && t.text == "*":
			stmt.columns = append(stmt.columns, "*")
		case t.kind == tokIdent:
			col := t.text
			if p.peek().kind == tokPunct && p.peek().text == "(" {
				p.next()
				inner := p.next()
				if inner.kind != tokIdent {
					return nil, fmt.Errorf("f2db: expected column inside %s(...)", col)
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				switch strings.ToLower(col) {
				case "sum":
					stmt.agg = "sum"
				case "avg":
					stmt.agg = "avg"
				default:
					return nil, fmt.Errorf("f2db: unsupported aggregate %q (SUM and AVG)", col)
				}
				col = strings.ToUpper(col) + "(" + inner.text + ")"
			}
			stmt.columns = append(stmt.columns, col)
		default:
			return nil, fmt.Errorf("f2db: unexpected token %q in select list", t.text)
		}
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("f2db: expected table name, got %q", tbl.text)
	}
	stmt.table = tbl.text

	if p.isKw("where") {
		p.next()
		for {
			attr := p.next()
			if attr.kind != tokIdent {
				return nil, fmt.Errorf("f2db: expected attribute in WHERE, got %q", attr.text)
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			val := p.next()
			if val.kind != tokString && val.kind != tokIdent {
				return nil, fmt.Errorf("f2db: expected value for %s, got %q", attr.text, val.text)
			}
			stmt.preds = append(stmt.preds, predicate{attr: attr.text, value: val.text})
			if p.isKw("and") {
				p.next()
				continue
			}
			break
		}
	}

	if p.isKw("group") {
		p.next()
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			col := p.next()
			if col.kind != tokIdent {
				return nil, fmt.Errorf("f2db: expected column in GROUP BY, got %q", col.text)
			}
			if strings.EqualFold(col.text, "time") {
				stmt.groupBy = true
			} else if stmt.groupLevel == "" {
				stmt.groupLevel = col.text
			} else {
				return nil, fmt.Errorf("f2db: at most one non-time GROUP BY attribute is supported, got %q and %q", stmt.groupLevel, col.text)
			}
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.isKw("as") {
		p.next()
		if err := p.expectKw("of"); err != nil {
			return nil, err
		}
		if err := p.expectKw("now"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("+"); err != nil {
			return nil, err
		}
		iv := p.next()
		if iv.kind != tokString {
			return nil, fmt.Errorf("f2db: expected interval literal after now() +, got %q", iv.text)
		}
		stmt.horizon = iv.text
	}
	if p.isKw("with") {
		p.next()
		if err := p.expectKw("interval"); err != nil {
			return nil, err
		}
		lvl := p.next()
		if lvl.kind != tokIdent {
			return nil, fmt.Errorf("f2db: expected confidence level after WITH INTERVAL, got %q", lvl.text)
		}
		v, err := strconv.ParseFloat(lvl.text, 64)
		if err != nil || v <= 0 || v >= 100 {
			return nil, fmt.Errorf("f2db: WITH INTERVAL wants a percentage in (0, 100), got %q", lvl.text)
		}
		stmt.interval = v
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("f2db: trailing input %q", p.peek().text)
	}
	return stmt, nil
}
