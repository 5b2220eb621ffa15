package main

import (
	"time"

	"mscclpp/internal/inference"
	"mscclpp/internal/sim"
	"mscclpp/internal/topology"
)

// span is one timed call the benchmark made into a layer. childNs is the
// part of the span covered by its child spans (and by the aggregated
// ARTimer calls made inside it), so the layer's self time is dur - childNs.
type span struct {
	name    string
	parent  int
	dur     time.Duration
	childNs time.Duration
	start   time.Time
}

// tracer records spans around the benchmark's own call sites, in memory.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site. ARTimer.Time calls are too many to keep one by one (millions
// per run), so they are aggregated into hit and miss totals and charged
// to the enclosing span as child time.
type tracer struct {
	spans []span
	open  []int

	arHits, arMisses    int64
	arHitDur, arMissDur time.Duration
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.dur = time.Since(s.start)
	t.open = t.open[:len(t.open)-1]
	if s.parent >= 0 {
		t.spans[s.parent].childNs += s.dur
	}
}

// ar records one aggregated ARTimer call inside the innermost open span.
func (t *tracer) ar(hit bool, d time.Duration) {
	if hit {
		t.arHits++
		t.arHitDur += d
	} else {
		t.arMisses++
		t.arMissDur += d
	}
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].childNs += d
	}
}

// total returns the summed duration and self time of every span named name.
func (t *tracer) total(name string) (dur, self time.Duration) {
	for _, s := range t.spans {
		if s.name == name {
			dur += s.dur
			self += s.dur - s.childNs
		}
	}
	return dur, self
}

// arClock is the serving replicas' AllReduce pricer: one MSCCL++ ARTimer,
// shared by every cell of a run, wrapped so a traced run can split its
// calls into cache hits and misses. The timer caches by aligned message
// size, so the wrapper mirrors that key to know which calls miss.
type arClock struct {
	envFn func() *topology.Env
	timer *inference.ARTimer
	align int64
	seen  map[int64]bool
	tr    *tracer
}

func newARClock(envFn func() *topology.Env) *arClock {
	a := &arClock{envFn: envFn, align: int64(4 * envFn().TotalGPUs())}
	a.reset()
	return a
}

// reset replaces the timer with a cold one.
func (a *arClock) reset() {
	a.timer = inference.NewARTimer(a.envFn, inference.LibMSCCLPP)
	a.seen = make(map[int64]bool)
}

func (a *arClock) time(msg int64) sim.Duration {
	if a.tr == nil {
		return a.timer.Time(msg)
	}
	key := msg
	if rem := key % a.align; rem != 0 {
		key += a.align - rem
	}
	hit := msg <= 0 || a.seen[key]
	if !hit {
		a.seen[key] = true
	}
	t0 := time.Now()
	d := a.timer.Time(msg)
	a.tr.ar(hit, time.Since(t0))
	return d
}
