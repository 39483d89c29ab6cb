package datum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KNull: "NULL", KInt: "INTEGER", KFloat: "FLOAT", KString: "TEXT", KBool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if d := NewInt(42); d.Kind() != KInt || d.Int() != 42 {
		t.Errorf("NewInt(42) = %v", d)
	}
	if d := NewFloat(2.5); d.Kind() != KFloat || d.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", d)
	}
	if d := NewString("x"); d.Kind() != KString || d.Str() != "x" {
		t.Errorf("NewString(x) = %v", d)
	}
	if d := NewBool(true); d.Kind() != KBool || !d.Bool() {
		t.Errorf("NewBool(true) = %v", d)
	}
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	var zero D
	if !zero.IsNull() {
		t.Error("zero D is not NULL")
	}
}

func TestFloatWidensInt(t *testing.T) {
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("NewInt(7).Float() = %v, want 7", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Int on string":   func() { NewString("a").Int() },
		"Str on int":      func() { NewInt(1).Str() },
		"Bool on float":   func() { NewFloat(1).Bool() },
		"Float on string": func() { NewString("a").Float() },
		"Float on bool":   func() { NewBool(true).Float() },
		"Int on null":     func() { Null.Int() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    D
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewString("it's"), "'it''s'"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestRaw(t *testing.T) {
	if got := NewString("abc").Raw(); got != "abc" {
		t.Errorf("Raw() = %q, want abc", got)
	}
	if got := NewInt(5).Raw(); got != "5" {
		t.Errorf("Raw() = %q, want 5", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b D
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(1.0), NewInt(1), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(1), NewFloat(1)) {
		t.Error("1 != 1.0")
	}
	if Equal(Null, Null) {
		t.Error("NULL = NULL should be false (SQL semantics)")
	}
	if Equal(NewInt(1), NewString("1")) {
		t.Error("1 = '1' should be false")
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   byte
		a, b int64
		want int64
	}{
		{'+', 2, 3, 5}, {'-', 2, 3, -1}, {'*', 4, 3, 12}, {'/', 7, 2, 3}, {'%', 7, 2, 1},
	}
	for _, c := range cases {
		got, err := Arith(c.op, NewInt(c.a), NewInt(c.b))
		if err != nil {
			t.Fatalf("Arith(%c): %v", c.op, err)
		}
		if got.Kind() != KInt || got.Int() != c.want {
			t.Errorf("%d %c %d = %v, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithFloatWidening(t *testing.T) {
	got, err := Arith('+', NewInt(1), NewFloat(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != KFloat || got.Float() != 1.5 {
		t.Errorf("1 + 0.5 = %v, want 1.5", got)
	}
}

func TestArithNullPropagation(t *testing.T) {
	got, err := Arith('+', Null, NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNull() {
		t.Errorf("NULL + 1 = %v, want NULL", got)
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero: expected error")
	}
	if _, err := Arith('/', NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero: expected error")
	}
	if _, err := Arith('+', NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic: expected error")
	}
	if _, err := Arith('?', NewInt(1), NewInt(1)); err == nil {
		t.Error("unknown operator: expected error")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"July proceedings", "%July%", true},
		{"june", "%July%", false},
		{"abc", "a%b%c", true},
		{"axbyc", "a%b%c", true},
		{"ac", "a%b%c", false},
		{"BUILDING", "BUILD%", true},
		{"building", "BUILD%", false}, // case sensitive
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	if NewInt(1).Hash() != NewFloat(1).Hash() {
		t.Error("1 and 1.0 must hash equally")
	}
	negZero := NewFloat(math.Copysign(0, -1))
	if !Equal(negZero, NewInt(0)) || negZero.Hash() != NewInt(0).Hash() || negZero.Hash() != NewFloat(0).Hash() {
		t.Error("-0.0, 0.0 and 0 are Equal and must hash equally")
	}
	if NewString("ab").Hash() == NewString("ba").Hash() {
		t.Error("different strings should (almost surely) hash differently")
	}
	f := func(v int64) bool { return NewInt(v).Hash() == NewInt(v).Hash() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want D
	}{
		{"42", NewInt(42)},
		{"-1", NewInt(-1)},
		{"2.5", NewFloat(2.5)},
		{"NULL", Null},
		{"null", Null},
		{"true", NewBool(true)},
		{"FALSE", NewBool(false)},
		{"BUILDING", NewString("BUILDING")},
	}
	for _, c := range cases {
		got := Parse(c.in)
		if got.Kind() != c.want.Kind() || Compare(got, c.want) != 0 {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsNumeric(t *testing.T) {
	if !NewInt(1).IsNumeric() || !NewFloat(1).IsNumeric() {
		t.Error("numerics not numeric")
	}
	if NewString("1").IsNumeric() || Null.IsNumeric() || NewBool(true).IsNumeric() {
		t.Error("non-numerics reported numeric")
	}
}
