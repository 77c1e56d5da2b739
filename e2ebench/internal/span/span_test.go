package span

import (
	"testing"
	"time"
)

func TestTotalsSubtractDirectChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "process", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "binclose", Parent: 0, Start: 2 * ms, End: 8 * ms},
		{Name: "checkpoint", Parent: 1, Start: 3 * ms, End: 7 * ms},
		{Name: "process", Parent: -1, Start: 10 * ms, End: 11 * ms},
	}
	got := map[string]Total{}
	for _, tot := range Totals(spans) {
		got[tot.Name] = tot
	}
	// Self time subtracts only direct children: the checkpoint nested in
	// the bin close is not subtracted from process a second time.
	want := map[string]Total{
		"process":    {Name: "process", Count: 2, Total: 11 * ms, Self: 5 * ms},
		"binclose":   {Name: "binclose", Count: 1, Total: 6 * ms, Self: 2 * ms},
		"checkpoint": {Name: "checkpoint", Count: 1, Total: 4 * ms, Self: 4 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
	var sum time.Duration
	for _, tot := range got {
		sum += tot.Self
	}
	if sum != 11*ms {
		t.Fatalf("self times sum to %v, want the 11ms of root time", sum)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := New()
	a := r.Begin("a", 1)
	b := r.Begin("b", 2)
	r.Add("c", 3, time.Now(), time.Microsecond)
	if got := r.ChildTime(time.Time{}); got != time.Microsecond {
		t.Fatalf("ChildTime = %v, want the 1µs child added under b", got)
	}
	r.End(a) // closes b too
	sp := r.Spans()
	if sp[b].Parent != a || sp[2].Parent != b || sp[a].Parent != -1 {
		t.Fatalf("parents = %+v", sp)
	}
	if sp[b].End == 0 || sp[a].End < sp[b].End {
		t.Fatalf("ends = %+v", sp)
	}
	var nilRec *Recorder
	nilRec.End(nilRec.Begin("x", 0)) // a nil recorder is a no-op
}
