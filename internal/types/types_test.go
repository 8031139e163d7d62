package types

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Int64: "INTEGER", Float64: "FLOAT", Varchar: "VARCHAR",
		Bool: "BOOLEAN", Date: "DATE", Timestamp: "TIMESTAMP",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": Int64, "INTEGER": Int64, "bigint": Int64,
		"float": Float64, "double precision": Float64,
		"varchar": Varchar, "TEXT": Varchar,
		"bool": Bool, "date": Date, "timestamp": Timestamp,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestPhysical(t *testing.T) {
	if Date.Physical() != Int64 || Timestamp.Physical() != Int64 {
		t.Error("Date and Timestamp must be physically Int64")
	}
	if Varchar.Physical() != Varchar {
		t.Error("Varchar is its own physical class")
	}
}

func TestDatumString(t *testing.T) {
	if got := NewInt(42).String(); got != "42" {
		t.Errorf("int datum = %q", got)
	}
	if got := NullDatum(Int64).String(); got != "NULL" {
		t.Errorf("null datum = %q", got)
	}
	d := DateFromTime(time.Date(2018, 6, 10, 12, 0, 0, 0, time.UTC))
	if got := d.String(); got != "2018-06-10" {
		t.Errorf("date datum = %q", got)
	}
	if got := NewString("hi").String(); got != "hi" {
		t.Errorf("string datum = %q", got)
	}
	if got := NewBool(true).String(); got != "true" {
		t.Errorf("bool datum = %q", got)
	}
}

func TestDatumCompare(t *testing.T) {
	if NewInt(1).Compare(NewInt(2)) >= 0 {
		t.Error("1 < 2")
	}
	if NewString("a").Compare(NewString("b")) >= 0 {
		t.Error("a < b")
	}
	if NullDatum(Int64).Compare(NewInt(-1)) >= 0 {
		t.Error("NULL sorts first")
	}
	if NullDatum(Int64).Compare(NullDatum(Int64)) != 0 {
		t.Error("NULL == NULL in storage order")
	}
	if NewFloat(1.5).Compare(NewFloat(1.5)) != 0 {
		t.Error("equal floats")
	}
	if NewBool(false).Compare(NewBool(true)) >= 0 {
		t.Error("false < true")
	}
}

// Property: Compare is antisymmetric over int datums.
func TestDatumCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return x.Compare(y) == -y.Compare(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorAppendDatumRoundtrip(t *testing.T) {
	v := NewVector(Varchar, 4)
	v.Append(NewString("x"))
	v.Append(NullDatum(Varchar))
	v.Append(NewString("z"))
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Datum(0).S != "x" || !v.Datum(1).Null || v.Datum(2).S != "z" {
		t.Errorf("roundtrip mismatch: %v %v %v", v.Datum(0), v.Datum(1), v.Datum(2))
	}
}

func TestVectorNullTracking(t *testing.T) {
	v := NewVector(Int64, 4)
	v.Append(NewInt(1))
	if v.Nulls != nil {
		t.Error("no nulls yet")
	}
	v.Append(NullDatum(Int64))
	v.Append(NewInt(3))
	if !v.IsNull(1) || v.IsNull(0) || v.IsNull(2) {
		t.Error("null bitmap wrong")
	}
}

func TestVectorGatherSlice(t *testing.T) {
	v := NewVector(Int64, 8)
	for i := int64(0); i < 8; i++ {
		v.Append(NewInt(i * 10))
	}
	g := v.Gather([]int{7, 0, 3})
	if g.Ints[0] != 70 || g.Ints[1] != 0 || g.Ints[2] != 30 {
		t.Errorf("gather = %v", g.Ints)
	}
	s := v.Slice(2, 5)
	if s.Len() != 3 || s.Ints[0] != 20 {
		t.Errorf("slice = %v", s.Ints)
	}
	// A slice is a view, but appending to it must not write into v.
	s.Append(NewInt(-1))
	if v.Ints[5] != 50 || s.Ints[3] != -1 {
		t.Errorf("append to a slice wrote into its source: v=%v s=%v", v.Ints, s.Ints)
	}
}

func TestVectorAppendVectorWithNulls(t *testing.T) {
	a := NewVector(Int64, 2)
	a.Append(NewInt(1))
	b := NewVector(Int64, 2)
	b.Append(NullDatum(Int64))
	b.Append(NewInt(2))
	a.AppendVector(b)
	if a.Len() != 3 || !a.IsNull(1) || a.IsNull(2) || a.IsNull(0) {
		t.Errorf("AppendVector nulls wrong: %v %v", a.Ints, a.Nulls)
	}
}

// AppendFrom must store what Append(o.Datum(i)) stores, raw slices and
// null bitmap alike: a NULL source position reads as the zero value even
// when the source holds something else under its null bit, and a short
// source bitmap means non-NULL.
func TestVectorAppendFromMatchesAppend(t *testing.T) {
	nulls := []bool{false, true, false, true}
	for _, src := range []*Vector{
		{Typ: Int64, Ints: []int64{1, 9, 3, 4, 5}, Nulls: nulls},
		{Typ: Float64, Floats: []float64{1.5, 9, -0.0, 4, 5}, Nulls: nulls},
		{Typ: Varchar, Strs: []string{"a", "junk", "c", "d", "e"}, Nulls: nulls},
		{Typ: Bool, Bools: []bool{true, true, false, true, true}, Nulls: nulls},
		{Typ: Int64, Ints: []int64{1, 2, 3}},
	} {
		typed, boxed := NewVector(src.Typ, 0), NewVector(src.Typ, 0)
		for i := src.Len() - 1; i >= 0; i-- {
			typed.AppendFrom(src, i)
			boxed.Append(src.Datum(i))
		}
		if !reflect.DeepEqual(typed, boxed) {
			t.Errorf("%v: AppendFrom = %+v, Append(Datum) = %+v", src.Typ, typed, boxed)
		}
	}
}

func TestBatchRowRoundtrip(t *testing.T) {
	s := Schema{{"id", Int64}, {"name", Varchar}}
	b := NewBatch(s, 2)
	b.AppendRow(Row{NewInt(1), NewString("ada")})
	b.AppendRow(Row{NewInt(2), NullDatum(Varchar)})
	if b.NumRows() != 2 || b.NumCols() != 2 {
		t.Fatalf("batch dims %dx%d", b.NumRows(), b.NumCols())
	}
	r := b.Row(1)
	if r[0].I != 2 || !r[1].Null {
		t.Errorf("row = %v", r)
	}
	rows := b.Rows()
	if len(rows) != 2 || rows[0][1].S != "ada" {
		t.Errorf("rows = %v", rows)
	}
}

func TestBatchGatherAppend(t *testing.T) {
	s := Schema{{"x", Int64}}
	b := BatchFromRows(s, []Row{{NewInt(5)}, {NewInt(6)}, {NewInt(7)}})
	g := b.Gather([]int{2, 0})
	if g.Cols[0].Ints[0] != 7 || g.Cols[0].Ints[1] != 5 {
		t.Errorf("gather = %v", g.Cols[0].Ints)
	}
	g.AppendBatch(b.Slice(1, 2))
	if g.NumRows() != 3 || g.Cols[0].Ints[2] != 6 {
		t.Errorf("append = %v", g.Cols[0].Ints)
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{{"a", Int64}, {"B", Varchar}, {"c", Float64}}
	if s.ColumnIndex("b") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if s.ColumnIndex("zz") != -1 {
		t.Error("missing column should be -1")
	}
	p := s.Project([]int{2, 0})
	if p[0].Name != "c" || p[1].Name != "a" {
		t.Errorf("project = %v", p)
	}
	if len(s.Names()) != 3 || len(s.Types()) != 3 {
		t.Error("names/types lengths")
	}
}

func TestColumnStatsMerge(t *testing.T) {
	a := ColumnStats{Min: NewInt(5), Max: NewInt(10)}
	b := ColumnStats{Min: NewInt(1), Max: NewInt(7), HasNulls: true}
	a.Merge(b)
	if a.Min.I != 1 || a.Max.I != 10 || !a.HasNulls {
		t.Errorf("merge = %+v", a)
	}
	allNull := ColumnStats{AllNull: true}
	allNull.Merge(ColumnStats{Min: NewInt(3), Max: NewInt(3)})
	if allNull.AllNull || allNull.Min.I != 3 {
		t.Errorf("allnull merge = %+v", allNull)
	}
}

func TestStatsOf(t *testing.T) {
	v := NewVector(Int64, 4)
	v.Append(NewInt(3))
	v.Append(NullDatum(Int64))
	v.Append(NewInt(-1))
	st := StatsOf(v)
	if st.Min.I != -1 || st.Max.I != 3 || !st.HasNulls || st.AllNull {
		t.Errorf("stats = %+v", st)
	}
	nv := NewVector(Int64, 1)
	nv.Append(NullDatum(Int64))
	if st := StatsOf(nv); !st.AllNull {
		t.Errorf("all-null stats = %+v", st)
	}
}
