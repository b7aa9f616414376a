package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share req; parent is
// the span that caused this one (0 for a request's root).
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps every span in memory until the run ends. Each client
// goroutine records into its own spanBuf, so recording takes no lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing,
// which is how the untraced run skips tracing.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID returns a fresh span ID (0 on a nil buffer).
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

// record stores a span; id 0 draws a fresh one. It returns the span's ID.
func (b *spanBuf) record(name string, id, parent, req uint64, start, end time.Time) uint64 {
	if b == nil {
		return 0
	}
	if id == 0 {
		id = b.t.nextID.Add(1)
	}
	b.spans = append(b.spans, span{
		name: name, id: id, parent: parent, req: req,
		start: int64(start.Sub(b.t.epoch)), end: int64(end.Sub(b.t.epoch)),
	})
	return id
}

// all returns every recorded span. Call only after the recording
// goroutines have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child's time outside its parent's interval is ignored.
func selfTimes(spans []span) map[uint64]time.Duration {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make(map[uint64][]span)
	for _, s := range spans {
		if _, ok := byID[s.parent]; ok && s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered int64
		cur := s.start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := k.start, k.end
			if lo < cur {
				lo = cur
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.id] = time.Duration(s.end - s.start - covered)
	}
	return out
}

// spanSummary groups span durations and self times by span name.
type spanSummary struct {
	dur  map[string][]time.Duration
	self map[string][]time.Duration
	reqs map[uint64]bool
}

func summarize(spans []span) spanSummary {
	self := selfTimes(spans)
	sum := spanSummary{
		dur:  make(map[string][]time.Duration),
		self: make(map[string][]time.Duration),
		reqs: make(map[uint64]bool),
	}
	for _, s := range spans {
		sum.dur[s.name] = append(sum.dur[s.name], s.dur())
		sum.self[s.name] = append(sum.self[s.name], self[s.id])
		sum.reqs[s.req] = true
	}
	return sum
}

// durUs is the q-quantile of a span name's duration in microseconds.
func (s spanSummary) durUs(name string, q float64) float64 {
	return us(exactQuantile(s.dur[name], q))
}

// selfUsPerReq is a span name's total self time per traced request.
func (s spanSummary) selfUsPerReq(name string) float64 {
	var total time.Duration
	for _, d := range s.self[name] {
		total += d
	}
	return ratio(us(total), float64(len(s.reqs)))
}

// writeSpans writes one span per line (name, id, parent, req, start_ns,
// end_ns; tab-separated) to a gzip file.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
