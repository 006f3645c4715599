package main

import (
	"math/rand"
	"strings"
	"time"

	"cubefc/internal/cube"
	"cubefc/internal/workload"
)

// statements is the pre-rendered SQL of a serving workload. Every node has
// a forecast statement (index 2·id, horizon 1–3 steps) and a plain history
// statement (index 2·id+1), so a query stream is a list of indices and
// distinct statements are easy to enumerate for the twin check.
type statements struct {
	sql     []string
	hot     []int      // hot-set node IDs
	inserts [][]string // per time advance, one INSERT per writer stream
}

// renderStatements renders every query statement of g, picks the hot
// set, and renders the given number of time advances, each split into one
// INSERT per writer stream — all from seed.
// The generator reads the graph's current values, so g must be a graph no
// engine owns (the engines advance theirs).
func renderStatements(g *cube.Graph, seed int64, hot, advances, streams int) *statements {
	gen := workload.New(g, seed)
	st := &statements{sql: make([]string, 2*g.NumNodes())}
	for id := 0; id < g.NumNodes(); id++ {
		fc := gen.QuerySQL(id, 1+id%3)
		st.sql[2*id] = fc
		st.sql[2*id+1] = fc[:strings.LastIndex(fc, " AS OF ")]
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{}
	for len(st.hot) < hot && len(st.hot) < g.NumNodes() {
		if id := rng.Intn(g.NumNodes()); !seen[id] {
			seen[id] = true
			st.hot = append(st.hot, id)
		}
	}
	for a := 0; a < advances; a++ {
		var parts []string
		for _, p := range workload.SplitBatch(gen.NextBatch(), streams) {
			parts = append(parts, gen.InsertSQL(p))
		}
		st.inserts = append(st.inserts, parts)
	}
	return st
}

// streamLen is the length of a rendered query stream: more requests than
// any phase of a run sends, so a stream does not wrap and its uniform
// draws stay uniform.
const streamLen = 1 << 18

func forecastStmt(id int) int { return 2 * id }
func historyStmt(id int) int  { return 2*id + 1 }

func stmtKind(i int) opKind {
	if i%2 == 1 {
		return opHistory
	}
	return opForecast
}

// poissonArrivals returns the send offsets of a Poisson stream of rate
// per second over dur: independent users, each arriving regardless of
// earlier replies.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
