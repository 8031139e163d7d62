package workload

import (
	"fmt"
	"math"
	"slices"

	"eon/internal/types"
)

// FloatTol is the relative difference MatchRows allows between two float
// results. Distributed aggregation sums in a different order per cluster
// shape, per seeded shard assignment and per gather arrival order, so the
// last bits legitimately differ. Rounding both sides to a fixed number of
// digits would not do: the generated prices and discounts are short
// decimals, their sums land exactly on rounding boundaries, and the two
// sides then round apart.
const FloatTol = 1e-9

// MatchRows returns nil if got holds want's rows as a multiset: every got
// row pairs with its own want row, floats within FloatTol relative.
// Otherwise it describes the first mismatch. Workload answers have at
// most a few thousand rows, so the quadratic pairing is cheap.
func MatchRows(want, got []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	used := make([]bool, len(want))
next:
	for _, r := range got {
		for i, w := range want {
			if !used[i] && slices.EqualFunc(r, w, sameDatum) {
				used[i] = true
				continue next
			}
		}
		return fmt.Errorf("got row %v, which matches no wanted row", r)
	}
	return nil
}

func sameDatum(a, b types.Datum) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.K.Physical() == types.Float64 && b.K.Physical() == types.Float64 {
		return math.Abs(a.F-b.F) <= FloatTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.Equal(b)
}
