// Corpus for the noheapalloc (SA01) analyzer.
package noheapsrc

import "fmt"

var sink any

// handler is a no-heap root: everything it can reach must not touch
// the garbage-collected heap.
//
//soleil:noheap
func handler(xs []int) int {
	s := make([]int, 4)   // want `SA01 .*make allocates`
	s = append(s, xs...)  // want `SA01 .*append allocates`
	m := map[string]int{} // want `SA01 .*composite literal allocates`
	p := &point{x: 1}     // want `SA01 .*&composite literal allocates`
	fmt.Println(len(s))   // want `SA01 .*fmt\.Println allocates`
	go background()       // want `SA01 .*go statement allocates`
	helper()
	return len(s) + len(m) + p.x
}

type point struct{ x int }

func background() {}

// helper is NOT annotated, but it is reachable from handler and so is
// checked with handler as its root.
func helper() {
	_ = new(int) // want `SA01 .*new allocates.*reachable from no-heap root handler`
}

// closures allocates its environment when it captures x.
//
//soleil:noheap
func closures() func() int {
	x := 1
	f := func() int { return x } // want `SA01 .*closure allocates`
	return f
}

// staticFn captures nothing: a func value referencing it is static.
//
//soleil:noheap
func staticFn() func() {
	return func() {} // no capture, no environment, no finding
}

// boxing converts values into interfaces, which may allocate.
//
//soleil:noheap
func boxing(v int) any {
	sink = any(v) // want `SA01 .*interface`
	take(v)       // want `SA01 .*boxed into an interface`
	return v      // want `SA01 .*boxed into an interface`
}

func take(v any) { _ = v }

// pointers cross into interfaces without boxing a value.
//
//soleil:noheap
func pointers(p *point) any {
	take(p)
	return p
}

// suppressed demonstrates //soleil:ignore on an accepted finding.
//
//soleil:noheap
func suppressed() {
	_ = make([]int, 1) //soleil:ignore SA01 startup-only allocation, measured cold
}

// unannotated is not a root and not reachable from one: allocation
// here is the normal Go idiom and none of our business.
func unannotated() []int {
	return append(make([]int, 0, 8), 1, 2, 3)
}
