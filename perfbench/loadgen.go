package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
)

// opKind classifies statements for the latency split.
type opKind uint8

const (
	opForecast opKind = iota
	opHistory
	opInsert
)

// record is one request's outcome. Times are offsets from the phase start:
// due is when the schedule wanted it sent, sent when it was, done when the
// reply arrived. Latency is done − due, so a stall that delays later sends
// is charged to them (no coordinated omission).
type record struct {
	kind            opKind
	due, sent, done time.Duration
	err             error
}

func (r *record) latency() time.Duration { return r.done - r.due }

// sleepUntil blocks until t. Sub-millisecond waits use a precise sleep
// (see sys_linux.go) because the runtime's timers round them up to a
// millisecond, which would dwarf a 50 µs request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// The runtime sleep overshoots by up to about a millisecond.
		if d > 3*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
			continue
		}
		preciseSleep(d)
	}
}

// openLoop sends request i at start+due[i] whether or not earlier replies
// have arrived, each from its own goroutine, with at most maxInflight
// outstanding (a full window delays the dispatcher; the due-based latency
// charges that wait too). After each spawn the dispatcher yields, so the
// request goroutine starts on the dispatcher's thread at once instead of
// waiting for another thread to wake and steal it. do performs request i
// and fills its kind and error.
func openLoop(start time.Time, due []time.Duration, maxInflight int, do func(i int, rec *record)) []record {
	recs := make([]record, len(due))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i := range due {
		recs[i].due = due[i]
		sleepUntil(start.Add(due[i]))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := &recs[i]
			rec.sent = time.Since(start)
			do(i, rec)
			rec.done = time.Since(start)
			<-sem
		}(i)
		runtime.Gosched()
	}
	wg.Wait()
	return recs
}

// closedLoop runs workers goroutines that each send their next request as
// soon as the previous reply arrives, until the deadline. next hands out
// request indices from a shared counter. It returns the tally and a
// sample per successful forecast query — small, so the loop's own memory
// barely grows with the host's speed.
func closedLoop(start time.Time, dur time.Duration, workers int, do func(i int, rec *record)) (tally, []sample) {
	var next atomic.Int64
	tallies := make([]tally, workers)
	samples := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				at := time.Since(start)
				if at >= dur {
					return
				}
				var rec record
				do(int(next.Add(1)-1), &rec)
				tallies[w].add(rec.err)
				if rec.err == nil && rec.kind == opForecast {
					samples[w] = append(samples[w], sample{at: at, us: us(time.Since(start) - at)})
				}
			}
		}(w)
	}
	wg.Wait()
	var all tally
	var out []sample
	for w := range tallies {
		all.merge(tallies[w])
		out = append(out, samples[w]...)
	}
	return all, out
}

// sample is one request's latency in µs and its due time, an offset from
// the phase start.
type sample struct {
	at time.Duration
	us float64
}

// samples returns the latency samples of the successful records of a kind.
func samples(recs []record, kind opKind) []sample {
	var out []sample
	for i := range recs {
		if recs[i].kind == kind && recs[i].err == nil {
			out = append(out, sample{at: recs[i].due, us: us(recs[i].latency())})
		}
	}
	return out
}

// tally counts a phase's operations and failures.
type tally struct {
	ops, failed int64
	first       error // the first failure
}

func (t *tally) add(err error) {
	t.ops++
	if err != nil {
		if t.failed == 0 {
			t.first = err
		}
		t.failed++
	}
}

func (t *tally) merge(u tally) {
	if t.failed == 0 {
		t.first = u.first
	}
	t.ops += u.ops
	t.failed += u.failed
}

func tallyOf(recs []record) tally {
	var t tally
	for i := range recs {
		t.add(recs[i].err)
	}
	return t
}

// latencies returns the latencies of the successful records of a kind,
// in microseconds.
func latencies(recs []record, kind opKind) []float64 {
	var out []float64
	for i := range recs {
		if recs[i].kind == kind && recs[i].err == nil {
			out = append(out, us(recs[i].latency()))
		}
	}
	return out
}

// window is the length of the windows windowedP50 splits a phase into.
const window = time.Second

// windowedP50 splits a phase into consecutive windows by due time and
// returns the median over the windows of each window's median latency, in
// µs: a disturbance that slows one window moves one term, not the result.
func windowedP50(xs []sample, dur time.Duration) float64 {
	byWindow := make([][]float64, int((dur+window-1)/window))
	for _, x := range xs {
		if w := int(x.at / window); w < len(byWindow) {
			byWindow[w] = append(byWindow[w], x.us)
		}
	}
	var p50 []float64
	for _, lat := range byWindow {
		if len(lat) > 0 {
			p50 = append(p50, quantile(lat, 0.5))
		}
	}
	return median(p50)
}

// lateness returns how late the generator sent each request, in µs.
func lateness(recs []record) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		out = append(out, us(recs[i].sent-recs[i].due))
	}
	return out
}

// digestResult folds a query result into 64 bits: node, key, plan, the
// forecast flag and every group's rows with floats as exact bit patterns,
// so equal digests mean bit-identical answers (up to hash collisions).
func digestResult(r *f2db.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(r.Plan))
	if r.Forecast {
		put(1)
	} else {
		put(0)
	}
	for _, g := range r.Groups {
		put(uint64(g.Node))
		h.Write([]byte(g.NodeKey))
		h.Write([]byte{0})
		h.Write([]byte(g.Member))
		h.Write([]byte{0})
		for _, row := range g.Rows {
			put(uint64(row.T))
			put(math.Float64bits(row.Value))
			put(math.Float64bits(row.Lo))
			put(math.Float64bits(row.Hi))
		}
	}
	return h.Sum64()
}
