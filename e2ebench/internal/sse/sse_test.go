package sse

import "testing"

func TestGaps(t *testing.T) {
	ids := func(xs ...uint64) []Frame {
		out := make([]Frame, len(xs))
		for i, x := range xs {
			out[i].ID = x
		}
		return out
	}
	for _, c := range []struct {
		name   string
		frames []Frame
		first  uint64
		want   int64
	}{
		{"contiguous", ids(1, 2, 3), 1, 0},
		{"resumed", ids(5, 6), 5, 0},
		{"missing head", ids(3, 4), 1, 2},
		{"hole", ids(1, 2, 5, 6), 1, 2},
		{"repeat", ids(1, 2, 2, 3), 1, 1},
		{"none", nil, 1, 0},
	} {
		if got := Gaps(c.frames, c.first); got != c.want {
			t.Errorf("%s: Gaps = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestResumeAfter(t *testing.T) {
	if got := ResumeAfter(100); got != 0 {
		t.Errorf("ResumeAfter(100) = %d, want 0", got)
	}
	if got := ResumeAfter(ResumeBacklog + 7); got != 7 {
		t.Errorf("ResumeAfter(ResumeBacklog+7) = %d, want 7", got)
	}
}
