package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A span's parent is the innermost span open at
// an outer layer when it starts. The traced phase drives one connection in
// closed loop, so at most one client request is outstanding and every
// backend span nests inside exactly one client span.
const (
	layerClient = iota
	layerCoord
	layerEngine
	layerStorage
	numLayers
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Req is the client request the
// span served (0 for background work such as a replica's log apply).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, which is
// how the untraced phases run the same wrappers at the cost of one nil
// check per call.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	nextID  atomic.Uint64
	open    [numLayers]atomic.Uint64
	openReq [numLayers]atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// trace turns span recording on or off; a nil tracer ignores it.
func (t *tracer) trace(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// token is an open span.
type token struct {
	id, parent, req uint64
	layer           int
	name            string
	start           int64
}

// begin opens a span at layer; the zero token means tracing is off.
func (t *tracer) begin(layer int, name string) token {
	if t == nil || !t.enabled.Load() {
		return token{}
	}
	tk := token{id: t.nextID.Add(1), layer: layer, name: name, start: int64(time.Since(t.t0))}
	for l := layer - 1; l >= 0; l-- {
		if p := t.open[l].Load(); p != 0 {
			tk.parent, tk.req = p, t.openReq[l].Load()
			break
		}
	}
	if layer == layerClient {
		tk.req = tk.id
	}
	t.open[layer].Store(tk.id)
	t.openReq[layer].Store(tk.req)
	return tk
}

// end closes a span opened by begin.
func (t *tracer) end(tk token) {
	if tk.id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.open[tk.layer].CompareAndSwap(tk.id, 0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: tk.id, Parent: tk.parent, Req: tk.req, Name: tk.name, Start: tk.start, End: end})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines (a header line with the result
// stamp first) under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64, stamp map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		f.Close()
		return "", err
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanStats indexes recorded spans by name and by parent.
type spanStats struct {
	byName map[string][]float64 // durations in microseconds
	spans  []span
	kids   map[uint64][]span
}

func analyze(spans []span) *spanStats {
	st := &spanStats{byName: map[string][]float64{}, spans: spans, kids: map[uint64][]span{}}
	for _, s := range spans {
		st.byName[s.Name] = append(st.byName[s.Name], float64(s.End-s.Start)/1e3)
		if s.Parent != 0 {
			st.kids[s.Parent] = append(st.kids[s.Parent], s)
		}
	}
	return st
}

// selfTimes returns, for every span named name, its duration minus the
// union of its children named childName, in microseconds.
func (st *spanStats) selfTimes(name, childName string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name != name {
			continue
		}
		var covered int64
		cur := s.Start
		// Children are appended in end order; sort by start for the union.
		kids := append([]span(nil), st.kids[s.ID]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			if k.Name != childName {
				continue
			}
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e3)
	}
	return out
}
