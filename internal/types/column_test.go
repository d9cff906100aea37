package types

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestColumnAppendAndValue(t *testing.T) {
	c := NewColumn(Int64, 4)
	c.AppendInt(10)
	c.Append(NewInt(20))
	c.AppendNull()
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if v := c.Value(0); v.I != 10 {
		t.Errorf("Value(0) = %v", v)
	}
	if v := c.Value(1); v.I != 20 {
		t.Errorf("Value(1) = %v", v)
	}
	if !c.Value(2).Null {
		t.Error("Value(2) should be NULL")
	}
	if c.IsNull(0) || !c.IsNull(2) {
		t.Error("IsNull mismatch")
	}
}

func TestColumnNullBitmapLazy(t *testing.T) {
	c := NewColumn(Float64, 4)
	c.AppendFloat(1)
	c.AppendFloat(2)
	if c.Nulls != nil {
		t.Error("nulls bitmap should be nil before first NULL")
	}
	c.AppendNull()
	if c.Nulls == nil || len(c.Nulls) != 3 {
		t.Fatalf("nulls bitmap = %v", c.Nulls)
	}
	if c.Nulls[0] || c.Nulls[1] || !c.Nulls[2] {
		t.Errorf("nulls content = %v", c.Nulls)
	}
}

func TestColumnWideningAppend(t *testing.T) {
	c := NewColumn(Float64, 2)
	c.Append(NewInt(3)) // int appended into float column widens
	if c.Floats[0] != 3.0 {
		t.Errorf("widening append got %v", c.Floats[0])
	}
}

func TestColumnSliceAndGather(t *testing.T) {
	c := NewColumn(String, 5)
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		c.AppendString(s)
	}
	s := c.Slice(1, 4)
	if s.Len() != 3 || s.Strs[0] != "b" || s.Strs[2] != "d" {
		t.Errorf("Slice = %v", s.Strs)
	}
	g := c.Gather([]int{4, 0, 2})
	if g.Len() != 3 || g.Strs[0] != "e" || g.Strs[1] != "a" || g.Strs[2] != "c" {
		t.Errorf("Gather = %v", g.Strs)
	}
}

func TestColumnGatherPreservesNulls(t *testing.T) {
	c := NewColumn(Int64, 3)
	c.AppendInt(1)
	c.AppendNull()
	c.AppendInt(3)
	g := c.Gather([]int{1, 2})
	if !g.IsNull(0) || g.IsNull(1) {
		t.Errorf("gathered nulls wrong: %v", g.Nulls)
	}
	if g.Ints[1] != 3 {
		t.Errorf("gathered value wrong: %v", g.Ints)
	}
}

func TestAppendColumn(t *testing.T) {
	a := NewColumn(Bool, 2)
	a.AppendBool(true)
	b := NewColumn(Bool, 2)
	b.AppendBool(false)
	b.AppendNull()
	a.AppendColumn(b)
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.Bools[0] != true || a.Bools[1] != false || !a.IsNull(2) {
		t.Errorf("AppendColumn content wrong: %v %v", a.Bools, a.Nulls)
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := Schema{{"x", Int64}, {"y", Float64}}
	if s.IndexOf("y") != 1 || s.IndexOf("x") != 0 || s.IndexOf("z") != -1 {
		t.Error("IndexOf wrong")
	}
	if !s.Equal(Schema{{"x", Int64}, {"y", Float64}}) {
		t.Error("Equal should hold")
	}
	if s.Equal(Schema{{"x", Int64}}) {
		t.Error("Equal length mismatch")
	}
	if got := s.String(); got != "(x BIGINT, y DOUBLE)" {
		t.Errorf("String = %q", got)
	}
}

func TestBatchRowRoundTrip(t *testing.T) {
	schema := Schema{{"a", Int64}, {"b", String}}
	b := NewBatch(schema)
	b.AppendRow([]Value{NewInt(1), NewString("one")})
	b.AppendRow([]Value{NewNull(Int64), NewString("two")})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	r := b.Row(1)
	if !r[0].Null || r[1].S != "two" {
		t.Errorf("Row(1) = %v", r)
	}
}

func TestBatchGatherSlice(t *testing.T) {
	schema := Schema{{"a", Int64}}
	b := NewBatch(schema)
	for i := int64(0); i < 10; i++ {
		b.AppendRow([]Value{NewInt(i)})
	}
	g := b.Gather([]int{9, 3})
	if g.Len() != 2 || g.Cols[0].Ints[0] != 9 || g.Cols[0].Ints[1] != 3 {
		t.Errorf("Gather = %v", g.Cols[0].Ints)
	}
	s := b.Slice(2, 5)
	if s.Len() != 3 || s.Cols[0].Ints[0] != 2 {
		t.Errorf("Slice = %v", s.Cols[0].Ints)
	}
}

func TestColumnRoundTripProperty(t *testing.T) {
	// Property: appending values then reading them back is identity.
	f := func(vals []int64) bool {
		c := NewColumn(Int64, len(vals))
		for _, v := range vals {
			c.AppendInt(v)
		}
		if c.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if c.Value(i).I != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstColumn(t *testing.T) {
	c := ConstColumn(NewFloat(2.5), 4)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < 4; i++ {
		if c.Floats[i] != 2.5 {
			t.Errorf("ConstColumn[%d] = %v", i, c.Floats[i])
		}
	}
	n := ConstColumn(NewNull(String), 2)
	if !n.IsNull(0) || !n.IsNull(1) {
		t.Error("ConstColumn of NULL should be all null")
	}
}

// typedAtColumns returns one column per type whose rows cover NULLs,
// signed zeros, NaN, INT/DOUBLE values that are numerically equal, and
// strings and bools.
func typedAtColumns() []*Column {
	ints := NewColumn(Int64, 0)
	floats := NewColumn(Float64, 0)
	strs := NewColumn(String, 0)
	bools := NewColumn(Bool, 0)
	for _, v := range []int64{0, 1, -1, 1 << 53, 7} {
		ints.AppendInt(v)
	}
	ints.AppendNull()
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), 1 << 53} {
		floats.AppendFloat(v)
	}
	floats.AppendNull()
	for _, v := range []string{"", "a", "1"} {
		strs.AppendString(v)
	}
	strs.AppendNull()
	bools.AppendBool(true)
	bools.AppendBool(false)
	bools.AppendNull()
	unknown := &Column{T: Unknown, Nulls: []bool{true, true}}
	return []*Column{ints, floats, strs, bools, unknown}
}

// TestTypedAtHelpersMatchValues checks HashAt, EqualAt and AppendAt
// against Value(i).Hash(), Value.Equal and Append(Value) on every pair of
// rows across every pair of column types.
func TestTypedAtHelpersMatchValues(t *testing.T) {
	cols := typedAtColumns()
	for _, c := range cols {
		for i := 0; i < c.Len(); i++ {
			if got, want := c.HashAt(i), c.Value(i).Hash(); got != want {
				t.Errorf("%s row %d: HashAt = %x, Value.Hash = %x", c.T, i, got, want)
			}
			for _, o := range cols {
				for j := 0; j < o.Len(); j++ {
					if got, want := c.EqualAt(i, o, j), c.Value(i).Equal(o.Value(j)); got != want {
						t.Errorf("%s[%d] = %s[%d]: EqualAt %v, Value.Equal %v", c.T, i, o.T, j, got, want)
					}
				}
			}
		}
	}
	for _, dst := range cols {
		for _, src := range cols {
			got, want := NewColumn(dst.T, 0), NewColumn(dst.T, 0)
			for j := 0; j < src.Len(); j++ {
				got.AppendAt(src, j)
				want.Append(src.Value(j))
			}
			// %+v prints NaN and -0 apart from 0, which DeepEqual cannot.
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("AppendAt %s into %s = %+v, Append(Value) = %+v", src.T, dst.T, got, want)
			}
		}
	}
}

func TestSliceCapsCapacity(t *testing.T) {
	c := NewColumn(Int64, 8)
	for i := int64(0); i < 4; i++ {
		c.AppendInt(i)
	}
	c.AppendNull()
	s := c.Slice(1, 3)
	s.AppendInt(99)
	if c.Ints[3] != 3 || !c.IsNull(4) || c.IsNull(3) {
		t.Fatalf("appending to a slice overwrote the parent: %+v", c)
	}
}
