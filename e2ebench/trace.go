package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); spans of one job share Job.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
	Job    string    `json:"job,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index (-1 on a nil recorder).
func (r *recorder) add(name, job string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Job: job})
	return len(r.spans) - 1
}

// time runs fn and records it as a span.
func (r *recorder) time(name, job string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, job, parent, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover (children clipped to the parent, and
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals inside parent.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}
