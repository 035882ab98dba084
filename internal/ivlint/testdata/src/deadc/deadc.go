// Package main exercises the deadcode analyzer: what main and init reach
// is live, every other package-level declaration is reported.
package main

type shape interface{ Area() int }

type square struct{ side int }

// Area is reached only through the interface call in main.
func (s square) Area() int { return s.side * s.side }

// Perimeter matches no interface method and has no caller.
func (s square) Perimeter() int { return 4 * s.side } // want `square.Perimeter is not reached`

var sides = map[string]int{}

func init() { sides["square"] = side() }

// side is reached only from init.
func side() int { return 2 }

func main() {
	var s shape = square{side: sides["square"]}
	_ = s.Area()
}

func Unused() {} // want `Unused is not reached`

type Orphan struct{} // want `Orphan is not reached`

const limit = 8 // want `limit is not reached`

//ivlint:allow deadcode — the documented extension point
func Hook() {}
