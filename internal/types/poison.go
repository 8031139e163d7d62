package types

import (
	"math"
	"testing"
)

// Poisoning is true in test binaries. Scratch that its owner reuses is
// then overwritten with Poison when the owner takes it back — an
// expression arena on reset, a pooled scan worker's vectors when the
// worker goes back to its node — so a result read after its owner moved
// on reads values no test expects instead of plausible stale ones.
// Default builds test the flag and do nothing else.
var Poisoning = testing.Testing()

// PoisonInt is what Poison writes into integers and row indexes: read as
// an index it is out of range.
const PoisonInt = math.MinInt64 + 0x5ca7

// Poison overwrites every element of s up to its capacity: NaN for
// floats, PoisonInt for integers (math.MinInt32 for int32s, which
// index nothing either, and all ones for uint64s), "☠" for strings, true for bools (and
// so for null bitmaps), and every slice of each vector a []*Vector
// holds. Other element types are left as they are.
func Poison[T any](s []T) {
	switch s := any(s[:cap(s)]).(type) {
	case []int64:
		fill(s, PoisonInt)
	case []int:
		fill(s, PoisonInt)
	case []uint64:
		fill(s, math.MaxUint64)
	case []int32:
		fill(s, math.MinInt32)
	case []float64:
		fill(s, math.NaN())
	case []string:
		fill(s, "☠")
	case []bool:
		fill(s, true)
	case []*Vector:
		for _, v := range s {
			if v != nil {
				v.poison()
			}
		}
	}
}

func (v *Vector) poison() {
	Poison(v.Nulls)
	Poison(v.Ints)
	Poison(v.Floats)
	Poison(v.Strs)
	Poison(v.Bools)
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}
