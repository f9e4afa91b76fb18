package modem

import (
	"testing"
)

// forEachSplit is the closure form of the receiver's multi-gap loss
// split order, kept here as the specification searchSplits follows on
// decode scratch. It enumerates ways to split total lost slots among
// parts gaps, near-even splits first (gaps have equal durations, so
// even splits are overwhelmingly likely), calling fn for each until fn
// returns true or maxTries splits have been tried.
func forEachSplit(total, parts, maxTries int, fn func([]int) bool) {
	switch {
	case parts <= 0:
		fn(nil)
		return
	case parts == 1:
		fn([]int{total})
		return
	}
	base := total / parts
	// Candidate per-part values ordered by distance from the even
	// share.
	order := make([]int, 0, total+1)
	seen := make(map[int]bool)
	for d := 0; len(order) <= total; d++ {
		for _, v := range []int{base + d, base - d} {
			if v >= 0 && v <= total && !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
		if d > total {
			break
		}
	}
	tries := 0
	var rec func(split []int, idx, remaining int) bool
	rec = func(split []int, idx, remaining int) bool {
		if tries >= maxTries {
			return true
		}
		if idx == parts-1 {
			tries++
			split[idx] = remaining
			return fn(append([]int(nil), split...))
		}
		for _, v := range order {
			if v > remaining {
				continue
			}
			split[idx] = v
			if rec(split, idx+1, remaining-v) {
				return true
			}
		}
		return false
	}
	rec(make([]int, parts), 0, total)
}

func collectSplits(total, parts, maxTries int) [][]int {
	var out [][]int
	forEachSplit(total, parts, maxTries, func(s []int) bool {
		out = append(out, append([]int(nil), s...))
		return false
	})
	return out
}

func TestForEachSplitSingleGap(t *testing.T) {
	got := collectSplits(7, 1, 100)
	if len(got) != 1 || got[0][0] != 7 {
		t.Errorf("single gap splits = %v", got)
	}
}

func TestForEachSplitZeroParts(t *testing.T) {
	calls := 0
	forEachSplit(0, 0, 100, func(s []int) bool {
		calls++
		if s != nil {
			t.Errorf("expected nil split, got %v", s)
		}
		return false
	})
	if calls != 1 {
		t.Errorf("zero-parts called %d times", calls)
	}
}

func TestForEachSplitTwoGapsCoversAll(t *testing.T) {
	got := collectSplits(4, 2, 100)
	if len(got) != 5 {
		t.Fatalf("got %d splits, want 5: %v", len(got), got)
	}
	seen := map[[2]int]bool{}
	for _, s := range got {
		if s[0]+s[1] != 4 || s[0] < 0 || s[1] < 0 {
			t.Errorf("invalid split %v", s)
		}
		seen[[2]int{s[0], s[1]}] = true
	}
	if len(seen) != 5 {
		t.Errorf("duplicate splits: %v", got)
	}
}

func TestForEachSplitEvenFirst(t *testing.T) {
	// Gaps have equal durations, so the even split must be tried
	// first.
	got := collectSplits(10, 2, 100)
	if got[0][0] != 5 || got[0][1] != 5 {
		t.Errorf("first split %v, want [5 5]", got[0])
	}
	// And the next candidates must stay near even.
	for _, s := range got[:3] {
		if s[0] < 3 || s[0] > 7 {
			t.Errorf("early split %v far from even", s)
		}
	}
}

func TestForEachSplitStopsOnTrue(t *testing.T) {
	calls := 0
	forEachSplit(6, 2, 100, func(s []int) bool {
		calls++
		return calls == 3
	})
	if calls != 3 {
		t.Errorf("did not stop: %d calls", calls)
	}
}

func TestForEachSplitHonorsMaxTries(t *testing.T) {
	got := collectSplits(50, 3, 10)
	if len(got) > 10 {
		t.Errorf("maxTries exceeded: %d", len(got))
	}
}

func TestForEachSplitThreeGapsSumInvariant(t *testing.T) {
	for _, s := range collectSplits(9, 3, 500) {
		sum := 0
		for _, v := range s {
			if v < 0 {
				t.Fatalf("negative part in %v", s)
			}
			sum += v
		}
		if sum != 9 {
			t.Fatalf("split %v sums to %d", s, sum)
		}
	}
}
