package main

import "testing"

func TestGroupMixGivesEachShapeTheSameQueries(t *testing.T) {
	const n = 77000
	queries := make(map[string]int)
	for i := 0; i < n; i++ {
		kind := pickShape((float64(i) + 0.5) / n)
		for _, m := range groupMix {
			if m.kind == kind {
				queries[kind] += m.size
			}
		}
	}
	for _, m := range groupMix {
		if q := queries[m.kind]; q < 59900 || q > 60100 {
			t.Errorf("%s: %d queries over %d groups, want 60000", m.kind, q, n)
		}
	}
}
