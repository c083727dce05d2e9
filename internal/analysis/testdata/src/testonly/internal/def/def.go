// Package def is the definer side of the testonly chain: an internal
// package whose objects the tool command uses, or does not.
package def

// Used is referenced by the tool: clean.
func Used() int { return 1 }

// OnlyTested is referenced only from def_test.go, which the Loader never
// reads, so it is reported like code nothing references.
func OnlyTested() int { return 2 } // want `func OnlyTested is referenced by no non-test file`

// fib refers only to itself, and its own declaration does not count.
func fib(n int) int { // want `func fib is referenced by no non-test file`
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

// Scale is a constant nothing reads.
const Scale = 2 // want `const Scale is referenced by no non-test file`

// Shape is used by the tool through its interface only: its methods are
// never named at a call site, and their names are exempt because the tool
// declares an interface with them.
type Shape struct{ side float64 }

// NewShape is the tool's constructor.
func NewShape(side float64) Shape { return Shape{side} }

// Area satisfies the tool's Area interface.
func (s Shape) Area() float64 { return s.side * s.side }

// Is follows the errors protocol, which errors.Is asserts through an
// anonymous interface: exempt.
func (s Shape) Is(error) bool { return false }

// Grow is a method nothing calls.
func (s Shape) Grow() Shape { return Shape{2 * s.side} } // want `method Grow is referenced by no non-test file`

// square is named only by its own method's receiver, which does not count
// as a use; the method's name is exempt, the type is not.
type square struct{ side float64 } // want `type square is referenced by no non-test file`

// Area satisfies the tool's Area interface.
func (q square) Area() float64 { return q.side * q.side }

// Kept has no user in the loaded program; the allow names its user.
//
//netlint:allow testonly fixture: a module of its own calls it
func Kept() {}

// Revived carries an allow from before the tool started using it, so the
// allow suppresses nothing and is itself reported.
//
//netlint:allow testonly fixture: stale reason // want `netlint:allow testonly suppresses nothing`
func Revived() {}
