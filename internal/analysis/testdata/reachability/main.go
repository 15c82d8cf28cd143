// Command fixture exercises the reachability analyzer: what main reaches —
// directly, through an interface, as a method value, through the standard
// library or as a marker — stays silent; what only a _test.go file calls,
// and what only dead code calls, is reported; a suppressed fake is a root
// and what it calls is reached; a suppression without a reason is itself a
// finding and excuses nothing.
package main

import "fmt"

// shape is called through: main never names square.area.
type shape interface {
	area() int
	isShape()
}

type square struct{ side int }

// area is reached only through the interface call in main.
func (s square) area() int { return s.side * s.side }

// isShape is a marker method: reached with its type.
func (square) isShape() {}

// String is called by fmt, not by the module: reached with its type.
func (s square) String() string { return fmt.Sprint("square ", s.side) }

// perimeter is on a reached type and still has no caller.
func (s square) perimeter() int { return 4 * s.side }

type counter struct{ n int }

// tick is reached as a method value, never called by name.
func (c *counter) tick() { c.n++ }

// render is reached as a function value.
func render(s shape) string { return fmt.Sprint(s, " covers ", s.area()) }

// ghost is named by nobody, so its String is not reached with it.
type ghost struct{}

func (ghost) String() string { return "boo" }

// onlyTestsCallThis has a caller, in main_test.go: that does not count.
func onlyTestsCallThis() int { return deadHelper() + 1 }

// deadHelper is called, but only by dead code.
func deadHelper() int { return 41 }

// fakeClock stands in for a test fake: excused by name, it is a root.
//
//lint:ignore reachability fixture: the fake a test substitutes for the wall clock
type fakeClock struct{ now int }

func (c *fakeClock) advance(d int) { c.now = clamp(c.now + d) }

// clamp is reached through the excused fake.
func clamp(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// unexcused carries a directive without a reason: reported twice, once for
// the directive and once for the function it fails to excuse.
//
//lint:ignore reachability
func unexcused() {}

var registry = map[string]func(shape) string{"render": render}

func main() {
	var s shape = square{side: 3}
	c := &counter{}
	step := c.tick
	step()
	fmt.Println(registry["render"](s), c.n)
}
