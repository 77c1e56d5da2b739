package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestNeed(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}, {0.1, 100}} {
		if got := Need(c.q); got != c.want {
			t.Errorf("Need(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := Percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported; it has fewer than 10 samples beyond it")
	}
	if _, err := Percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples reported")
	}
	v, err := Percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", v)
	}
	v, err = Percentile(seq(20), 0.5)
	if err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestQuartilesSmallSamples(t *testing.T) {
	// Python: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] and
	// quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0].
	if q1, q3 := Quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of 1,2 = %v, %v", q1, q3)
	}
	if q1, q3 := Quartiles([]float64{5, 1, 9}); q1 != 1 || q3 != 9 {
		t.Fatalf("quartiles of 1,5,9 = %v, %v", q1, q3)
	}
}
