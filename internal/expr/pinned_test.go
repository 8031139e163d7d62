package expr

import (
	"fmt"
	"testing"

	"eon/internal/types"
)

// TestPinnedValues checks which predicates pin the segmentation columns
// of testSchema and to which key tuples.
func TestPinnedValues(t *testing.T) {
	id, name, price, sold := Col("id"), Col("name"), Col("price"), Col("sold")
	in := func(e Expr, list ...Expr) Expr { return &In{E: e, List: list} }
	for _, c := range []struct {
		name string
		pred Expr
		cols []int
		want string // the tuples as fmt prints them, "" for nil
	}{
		{"eq", Bin(OpEq, id, IntLit(5)), []int{0}, "[5]"},
		{"eq_flipped", Bin(OpEq, IntLit(5), id), []int{0}, "[5]"},
		{"conjunct", And(Bin(OpGt, Col("active"), Lit(types.NewBool(false))), Bin(OpEq, id, IntLit(5))), []int{0}, "[5]"},
		{"first_pin_wins", And(Bin(OpEq, id, IntLit(5)), Bin(OpEq, id, IntLit(6))), []int{0}, "[5]"},
		{"in", in(id, IntLit(1), IntLit(2)), []int{0}, "[1 2]"},
		{"varchar", Bin(OpEq, name, StrLit("w")), []int{2}, "[w]"},
		{"date", Bin(OpEq, sold, Lit(types.NewDate(17692))), []int{4}, "[2018-06-10]"},
		{"two_columns", And(Bin(OpEq, name, StrLit("w")), Bin(OpEq, id, IntLit(5))), []int{0, 2}, "[5|w]"},
		{"two_columns_one_pinned", Bin(OpEq, id, IntLit(5)), []int{0, 2}, ""},
		{"in_two_columns", And(in(id, IntLit(1)), Bin(OpEq, name, StrLit("w"))), []int{0, 2}, ""},
		{"or", Bin(OpOr, Bin(OpEq, id, IntLit(5)), Bin(OpEq, id, IntLit(6))), []int{0}, ""},
		{"not_in", &In{E: id, List: []Expr{IntLit(1)}, Negate: true}, []int{0}, ""},
		{"range", Bin(OpGe, id, IntLit(5)), []int{0}, ""},
		{"null", Bin(OpEq, id, Lit(types.NullDatum(types.Int64))), []int{0}, ""},
		{"in_null", in(id, IntLit(1), Lit(types.NullDatum(types.Int64))), []int{0}, ""},
		{"other_class", Bin(OpEq, id, FloatLit(5)), []int{0}, ""},
		{"float_column", Bin(OpEq, price, FloatLit(0)), []int{1}, ""},
		{"expression", Bin(OpEq, Bin(OpAdd, id, IntLit(1)), IntLit(5)), []int{0}, ""},
		{"no_columns", Bin(OpEq, id, IntLit(5)), nil, ""},
	} {
		if err := Bind(c.pred, testSchema); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := ""
		if keys := PinnedValues(c.pred, c.cols); keys != nil {
			got = fmt.Sprint(keys)
		}
		if got != c.want {
			t.Errorf("%s: PinnedValues = %q, want %q", c.name, got, c.want)
		}
	}
}
