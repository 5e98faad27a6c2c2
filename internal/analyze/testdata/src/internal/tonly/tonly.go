// Package tonly exercises the testonly analyzer: lintfix/tuser uses some
// of these exported names; the rest only a test could reach.
package tonly

import "fmt"

// Used is called by tuser.
func Used() int { return helper() }

func helper() int { return 1 }

// Unused has no caller outside tests.
func Unused() {} // want `tonly.Unused is exported but only tests reference it`

// Fact calls only itself, which is not a use.
func Fact(n int) int { // want `tonly.Fact is exported`
	if n < 2 {
		return 1
	}
	return n * Fact(n-1)
}

// Limit is read by nothing.
const Limit = 3 // want `tonly.Limit is exported`

// Kept is read by tuser.
const Kept = 4

// Orphan is named by nothing but its own method's receiver.
type Orphan struct{ n int } // want `tonly.Orphan is exported`

// Bump is called by nothing.
func (o *Orphan) Bump() { o.n++ } // want `\(\*tonly.Orphan\).Bump is exported`

// Shape is the interface tuser calls Area through.
type Shape interface{ Area() float64 }

// Square is built by tuser.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is reached only through fmt.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.Side) }

// Name shares its name with reflect.Type's method, which tuser calls: a
// standard-library interface outside the fixed String/Error/Marshal set
// keeps nothing alive.
func (s Square) Name() string { return "square" } // want `\(tonly.Square\).Name is exported`

// Perimeter has no caller and no interface behind it.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `\(tonly.Square\).Perimeter is exported`

// Circle satisfies Shape on paper only: an assertion is not a use.
type Circle struct{ R float64 } // want `tonly.Circle is exported`

var _ Shape = Circle{}

// Area is kept by Shape's dispatch even though no Circle is ever built.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Reference is what the fixture's tests compare against.
//
//selfstab:testref the fixture's tests compare their answers against it
func Reference() int { return 2 }

// Table is a published row the fixture's tests check.
//
//selfstab:testref the fixture's tests check the published row against it
var Table = []int{1, 2, 3}
