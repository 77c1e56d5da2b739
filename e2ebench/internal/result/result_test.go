package result

import "testing"

func TestLedgerFailCountsOnlyFailures(t *testing.T) {
	var l Ledger
	l.Attempted = 10
	l.Fail(0, "nothing failed")
	if r := l.Result(nil); !r.Correct || r.Failed != 0 {
		t.Fatalf("after Fail(0): %+v", r)
	}
	l.Fail(3, "gaps %d", 3)
	r := l.Result(nil)
	if r.Correct || r.Failed != 3 || r.Attempted != 10 || len(l.Problems) != 1 || l.Problems[0] != "gaps 3" {
		t.Fatalf("after Fail(3): %+v %q", r, l.Problems)
	}
}
