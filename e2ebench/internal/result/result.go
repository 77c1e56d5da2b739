// Package result is what both benchmark programs report: one metric, the
// contract's result line, and the ledger of attempted and failed
// operations and correctness findings behind it.
package result

import "fmt"

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Ledger accumulates attempted and failed operations and the problems
// behind the failures across a run.
type Ledger struct {
	Attempted, Failed int64
	Problems          []string
}

// Fail records n failed operations under one problem; n <= 0 records
// nothing.
func (l *Ledger) Fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	l.Failed += n
	l.Problems = append(l.Problems, fmt.Sprintf(format, args...))
}

// Result is the run's result with metrics m: correct when no problem was
// recorded.
func (l *Ledger) Result(m map[string]Metric) Result {
	return Result{Correct: len(l.Problems) == 0, Attempted: l.Attempted, Failed: l.Failed, Metrics: m}
}
