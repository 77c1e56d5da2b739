package sched

import (
	"testing"
	"time"

	"kepler/e2ebench/internal/sse"
)

func TestDueCompressesStreamTime(t *testing.T) {
	due := Due([]int64{5_000_000, 5_000_000, 65_000_000, 125_000_000}, 60)
	want := []time.Duration{0, 0, time.Second, 2 * time.Second}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("due = %v, want %v", due, want)
		}
	}
	if f := Factor(120_000_000, 2); f != 60 {
		t.Fatalf("Factor = %v, want 60", f)
	}
	if f := Factor(1_000_000, 10); f != 1 {
		t.Fatalf("Factor below real time = %v, want 1", f)
	}
}

func TestLateClampsAndAccumulates(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	// One coalesced write hands records 1 and 2 over together, late; the
	// open-loop schedule does not shift, so record 3 is on time again.
	done := []time.Duration{-ms / 10, 25 * ms, 25 * ms, 30 * ms}
	got := Late(due, done)
	want := []time.Duration{0, 15 * ms, 5 * ms, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Late = %v, want %v", got, want)
		}
	}
}

func TestClosingRecord(t *testing.T) {
	m := int64(60_000_000)
	ts := []int64{10, m - 1, m, m + 5, 3*m + 1, 3*m + 2}
	// Bin [0,m) closes on the record at exactly m; bins ending 2m and 3m
	// both close on the first record of the fourth bin after an idle gap;
	// the last bin closes at flush with no record behind it.
	ends := []int64{m, 2 * m, 3 * m, 4 * m}
	got := ClosingRecord(ts, ends)
	want := []int{2, 4, 4, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClosingRecord = %v, want %v", got, want)
		}
	}
}

func TestBinDelaysWindowAndRelease(t *testing.T) {
	m := int64(60_000_000)
	ts := []int64{10, m + 1, 2*m + 1, 3*m + 1}
	t0 := time.Unix(1000, 0)
	rel := func(i int) time.Time {
		if i == 3 {
			return time.Time{} // never released
		}
		return t0.Add(time.Duration(i) * time.Second)
	}
	frames := []sse.Frame{
		{ID: 1, Kind: "bin_closed", BinEnd: time.UnixMicro(m), At: t0.Add(1*time.Second + 4*time.Millisecond)},
		{ID: 2, Kind: "incident", At: t0.Add(2 * time.Second)},
		{ID: 3, Kind: "bin_closed", BinEnd: time.UnixMicro(2 * m), At: t0.Add(2*time.Second + 7*time.Millisecond)},
		{ID: 4, Kind: "bin_closed", BinEnd: time.UnixMicro(3 * m), At: t0.Add(4 * time.Second)},
		{ID: 5, Kind: "bin_closed", BinEnd: time.UnixMicro(4 * m), At: t0.Add(5 * time.Second)},
	}
	// Record 1 closed the first bin but lies before the window; record 3's
	// release is unknown; the flushed last bin has no closing record.
	got := BinDelays(frames, ts, 2, len(ts), rel)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("BinDelays = %v, want [7]", got)
	}
}
