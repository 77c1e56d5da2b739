// Package span records timed, nested spans in memory and turns them into
// per-name totals and self times (duration minus the time of direct child
// spans).
package span

import (
	"sort"
	"time"
)

// Span is one timed call. Parent is the index of the enclosing span in the
// recorder, or -1; ID names the record, bin or request it served.
type Span struct {
	Name       string
	ID         int64
	Parent     int
	Start, End time.Duration
}

// Recorder collects spans from one goroutine. The zero value is ready; a
// nil *Recorder records nothing.
type Recorder struct {
	epoch time.Time
	spans []Span
	stack []int
}

// New returns a recorder whose offsets count from now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span nested in the innermost open one and returns its
// index for End.
func (r *Recorder) Begin(name string, id int64) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: time.Since(r.epoch)})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// End closes span i and every span still open inside it.
func (r *Recorder) End(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	for len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.spans[top].End = now
		if top == i {
			return
		}
	}
}

// Add records an already-measured span under the innermost open one.
func (r *Recorder) Add(name string, id int64, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	s := start.Sub(r.epoch)
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: s, End: s + d})
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// ChildTime sums the durations of the innermost open span's direct
// children that started at or after since: the part of a just-finished
// stretch of that span already attributed to child calls.
func (r *Recorder) ChildTime(since time.Time) time.Duration {
	if r == nil || len(r.stack) == 0 {
		return 0
	}
	parent, from := r.stack[len(r.stack)-1], since.Sub(r.epoch)
	var d time.Duration
	for i := len(r.spans) - 1; i > parent; i-- {
		if s := r.spans[i]; s.Parent == parent && s.Start >= from {
			d += s.End - s.Start
		}
	}
	return d
}

// Total is the aggregate of every span sharing a name.
type Total struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus direct children
}

// Totals aggregates spans by name, sorted by descending self time.
func Totals(spans []Span) []Total {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	by := map[string]*Total{}
	var order []string
	for i, s := range spans {
		t := by[s.Name]
		if t == nil {
			t = &Total{Name: s.Name}
			by[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
	}
	out := make([]Total, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
