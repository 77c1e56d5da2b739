// Package sched is the arithmetic of the paced phase: the open-loop
// release schedule, the lateness of the driver against it, and the
// matching of each closed bin to the record whose arrival closed it.
package sched

import (
	"time"

	"kepler/e2ebench/internal/sse"
)

// BinMicros is the detector's bin width in stream microseconds.
const BinMicros = int64(60 * time.Second / time.Microsecond)

// Due maps stream timestamps (µs, stream order) onto wall offsets from the
// start of the paced phase, compressed by factor: record i is due
// (ts[i]-ts[0])/factor after the first.
func Due(ts []int64, factor float64) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = time.Duration(float64(t-ts[0]) * float64(time.Microsecond) / factor)
	}
	return out
}

// Factor returns the compression that releases n records spanning the
// given stream time in wall seconds; at least 1.
func Factor(spanMicros int64, seconds float64) float64 {
	f := float64(spanMicros) / 1e6 / seconds
	if f < 1 {
		return 1
	}
	return f
}

// Late returns how far behind schedule each record was handed over: its
// hand-over offset minus its due offset, clamped at zero (a record is never
// released early, so a negative value only reflects clock granularity).
func Late(due, done []time.Duration) []time.Duration {
	out := make([]time.Duration, len(due))
	for i := range due {
		out[i] = max(done[i]-due[i], 0)
	}
	return out
}

// ClosingRecord matches each closed bin, given by its end in stream µs and
// in close order, to the index of the record that closed it: the first
// record at or after the bin's end (the detector closes a bin when a
// record from a later bin arrives). Bins closed by the end-of-stream flush
// have no closing record and map to -1.
func ClosingRecord(ts []int64, binEnds []int64) []int {
	out := make([]int, len(binEnds))
	j := 0
	for i, end := range binEnds {
		for j < len(ts) && ts[j] < end {
			j++
		}
		if j < len(ts) {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}

// BinDelays matches the bin_closed frames to the records that closed them
// (ts holds the feed's stream timestamps) and returns, for each bin whose
// closing record lies in [lo, hi), the frame's receipt minus that record's
// release time in ms. Records release reports as the zero time are
// skipped.
func BinDelays(frames []sse.Frame, ts []int64, lo, hi int, release func(i int) time.Time) []float64 {
	var ends []int64
	var recv []time.Time
	for _, f := range frames {
		if f.Kind == "bin_closed" && !f.BinEnd.IsZero() {
			ends = append(ends, f.BinEnd.UnixMicro())
			recv = append(recv, f.At)
		}
	}
	var out []float64
	for i, c := range ClosingRecord(ts, ends) {
		if c < lo || c >= hi {
			continue
		}
		if at := release(c); !at.IsZero() {
			out = append(out, float64(recv[i].Sub(at))/float64(time.Millisecond))
		}
	}
	return out
}
