package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. id is the event
// or read index where one exists, -1 otherwise; parent indexes the
// enclosing span, -1 for a root.
type span struct {
	name       string
	id         int64
	parent     int32
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in memory until the run ends. A tracer that is not
// recording costs one atomic load per call.
type tracer struct {
	enabled bool        // the run is traced
	on      atomic.Bool // spans are being recorded now
	base    time.Time
	mu      sync.Mutex
	spans   []span
}

func newTracer(enabled bool, base time.Time) *tracer {
	t := &tracer{enabled: enabled, base: base}
	if enabled {
		t.spans = make([]span, 0, 1<<18)
		t.on.Store(true)
	}
	return t
}

// recording reports whether spans are being recorded now.
func (t *tracer) recording() bool { return t.on.Load() }

// pause stops (true) or resumes (false) recording in a traced run, so the
// run can measure stretches without tracing beside stretches with it.
func (t *tracer) pause(p bool) {
	if t.enabled {
		t.on.Store(!p)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a span and returns its index, or -1 when tracing is off.
func (t *tracer) open(name string, id int64, parent int32) int32 {
	if !t.on.Load() {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// add records a finished span whose times the caller measured.
func (t *tracer) add(name string, id int64, parent int32, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans; unfinished ones have end -1.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, times in microseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_us":%.3f,"end_us":%.3f}`+"\n",
			s.name, s.id, s.parent, float64(s.start)/1e3, float64(s.end)/1e3)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func selfTimes(all []span) map[string]time.Duration {
	children := map[int32][][2]int64{}
	for _, s := range all {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range all {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(children[int32(i)], s.start, s.end)
		out[s.name] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
