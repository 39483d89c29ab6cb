// Package datum defines the typed value model shared by the SQL parser,
// the storage layer, and the execution engine. A Datum is a single SQL
// value: an integer, a float, a string, a boolean, or NULL.
//
// The comparison and arithmetic rules follow the usual SQL semantics the
// substrate engine needs: numeric types compare after widening to float,
// NULL never equals anything (three-valued logic is handled by the engine;
// datum-level Compare treats NULL as less than every non-NULL value so that
// sorting is total and deterministic).
package datum

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Datum.
type Kind uint8

// The supported value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INTEGER"
	case KFloat:
		return "FLOAT"
	case KString:
		return "TEXT"
	case KBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// D is a single SQL value. The zero value is NULL.
type D struct {
	k Kind
	i int64
	f float64
	s string
	b bool
}

// Null is the NULL datum.
var Null = D{}

// NewInt returns an integer datum.
func NewInt(v int64) D { return D{k: KInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) D { return D{k: KFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) D { return D{k: KString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) D { return D{k: KBool, b: v} }

// Kind reports the datum's runtime type.
func (d D) Kind() Kind { return d.k }

// IsNull reports whether the datum is NULL.
func (d D) IsNull() bool { return d.k == KNull }

// Int returns the integer payload. It panics if the kind is not KInt.
func (d D) Int() int64 {
	if d.k != KInt {
		panic(fmt.Sprintf("datum: Int() on %s", d.k))
	}
	return d.i
}

// Float returns the float payload, widening integers. It panics for
// non-numeric kinds.
func (d D) Float() float64 {
	switch d.k {
	case KFloat:
		return d.f
	case KInt:
		return float64(d.i)
	}
	panic(fmt.Sprintf("datum: Float() on %s", d.k))
}

// Str returns the string payload. It panics if the kind is not KString.
func (d D) Str() string {
	if d.k != KString {
		panic(fmt.Sprintf("datum: Str() on %s", d.k))
	}
	return d.s
}

// Bool returns the boolean payload. It panics if the kind is not KBool.
func (d D) Bool() bool {
	if d.k != KBool {
		panic(fmt.Sprintf("datum: Bool() on %s", d.k))
	}
	return d.b
}

// IsNumeric reports whether the datum is an integer or a float.
func (d D) IsNumeric() bool { return d.k == KInt || d.k == KFloat }

// String renders the datum the way the engine prints result rows and
// EXPLAIN conditions: strings are single-quoted, NULL is the keyword.
func (d D) String() string {
	switch d.k {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(d.i, 10)
	case KFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KString:
		return "'" + strings.ReplaceAll(d.s, "'", "''") + "'"
	case KBool:
		if d.b {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Raw renders the datum without quoting, for CSV-ish output.
func (d D) Raw() string {
	if d.k == KString {
		return d.s
	}
	return d.String()
}

// Compare orders two datums. NULL sorts before every non-NULL value;
// numerics compare after widening; booleans order false < true; mixed
// non-numeric kinds compare by kind to keep the order total.
func Compare(a, b D) int {
	if a.k == KNull || b.k == KNull {
		switch {
		case a.k == b.k:
			return 0
		case a.k == KNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.k == KInt && b.k == KInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.k != b.k {
		if a.k < b.k {
			return -1
		}
		return 1
	}
	switch a.k {
	case KString:
		return strings.Compare(a.s, b.s)
	case KBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports SQL equality between two non-NULL datums; if either side is
// NULL it returns false (the engine layers three-valued logic on top).
func Equal(a, b D) bool {
	if a.k == KNull || b.k == KNull {
		return false
	}
	return Compare(a, b) == 0
}

// Arith applies a binary arithmetic operator (+ - * /) with SQL semantics:
// NULL propagates, integer op integer stays integer (division truncates
// toward zero like PostgreSQL), anything involving a float widens.
func Arith(op byte, a, b D) (D, error) {
	if a.k == KNull || b.k == KNull {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("datum: %c on non-numeric operands %s, %s", op, a.k, b.k)
	}
	if a.k == KInt && b.k == KInt {
		switch op {
		case '+':
			return NewInt(a.i + b.i), nil
		case '-':
			return NewInt(a.i - b.i), nil
		case '*':
			return NewInt(a.i * b.i), nil
		case '/':
			if b.i == 0 {
				return Null, fmt.Errorf("datum: division by zero")
			}
			return NewInt(a.i / b.i), nil
		case '%':
			if b.i == 0 {
				return Null, fmt.Errorf("datum: division by zero")
			}
			return NewInt(a.i % b.i), nil
		}
		return Null, fmt.Errorf("datum: unknown operator %c", op)
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, fmt.Errorf("datum: division by zero")
		}
		return NewFloat(af / bf), nil
	}
	return Null, fmt.Errorf("datum: unknown operator %c", op)
}

// Like implements the SQL LIKE operator with % (any run) and _ (any single
// character) wildcards. Matching is case-sensitive, as in PostgreSQL.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on the last '%'.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Parse converts a textual literal into a datum, used by the data loaders:
// integers, floats, booleans and the bare word NULL are recognized, anything
// else is a string.
func Parse(s string) D {
	switch strings.ToUpper(s) {
	case "NULL":
		return Null
	case "TRUE":
		return NewBool(true)
	case "FALSE":
		return NewBool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return NewFloat(f)
	}
	return NewString(s)
}

// Hash returns a stable 64-bit hash of the datum, used by the hash join and
// hash aggregation operators. Equal datums (after numeric widening) hash
// equally.
func (d D) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	switch d.k {
	case KNull:
		mix(0)
	case KInt, KFloat:
		// Widen ints so 1 and 1.0 collide, matching Equal.
		f := d.Float()
		if f == 0 {
			f = 0 // -0 and +0 are Equal
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	case KString:
		mix(2)
		for i := 0; i < len(d.s); i++ {
			mix(d.s[i])
		}
	case KBool:
		mix(3)
		if d.b {
			mix(1)
		}
	}
	return h
}
