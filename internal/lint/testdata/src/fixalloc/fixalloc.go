// Package fixalloc is the escape budget's fixture. TestFixtureEscapeBudget
// builds it with -gcflags=-m, walks the closure of every
// //thesaurus:hotpath root, and pins the sites counted against each root
// and the calls the walk cannot follow. Where a case depends on
// inlining, //go:noinline fixes it, so the golden does not move with the
// inliner's budget. The pragma-grammar violations for hotpath-pragma live
// in pragmas.go; the test-file case lives in fixalloc_test.go.
package fixalloc

import "fmt"

var (
	sink  []byte
	sinkN []int
)

// An escaping make in a root (counted).
//
//thesaurus:hotpath
func rootMake(n int) {
	sink = make([]byte, n)
}

// noinlineMake keeps its own frame (counted against every root that
// reaches it).
//
//go:noinline
func noinlineMake(n int) {
	sink = make([]byte, n)
}

// Two roots reach noinlineMake: its make counts against each.
//
//thesaurus:hotpath
func viaNoinline(n int) {
	noinlineMake(n)
}

//thesaurus:hotpath
func viaNoinlineToo(n int) {
	noinlineMake(n + 1)
}

// smallMake is inlined: the compiler reports its make at the ( of the
// call and again here, where it counts once.
func smallMake(n int) {
	sink = make([]byte, n)
}

//thesaurus:hotpath
func viaInlined(n int) {
	smallMake(n)
}

// guard formats only in a panic argument (not counted).
//
//go:noinline
func guard(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("fixalloc: negative %d", n))
	}
	return n
}

//thesaurus:hotpath
func viaGuard(n int) int {
	return guard(n)
}

// ring is the allocation-boundary case.
type ring struct {
	buf []int
	pos int
}

// grow is a boundary the compiler inlines: its make is reported at the
// ( of the call and in this body (not counted).
//
//thesaurus:allocok amortized capacity growth off the steady-state path
func (r *ring) grow() {
	r.buf = make([]int, 2*len(r.buf)+1)
}

// growCold is a boundary that keeps its own frame (not counted).
//
//thesaurus:allocok amortized capacity growth off the steady-state path
//go:noinline
func (r *ring) growCold() {
	r.buf = make([]int, 2*len(r.buf)+1)
}

// Push is a root declared on a method.
//
//thesaurus:hotpath
func (r *ring) Push(v int) {
	if r.pos == len(r.buf) {
		r.grow()
	}
	if r.pos > len(r.buf) {
		r.growCold()
	}
	r.buf[r.pos] = v
	r.pos++
}

// pick has two instantiations, and the compiler prints its make once for
// each (counted once).
//
//go:noinline
func pick[T any](v T, n int) T {
	sink = make([]byte, n)
	return v
}

//thesaurus:hotpath
func viaGeneric(n int) int {
	return pick(n, n) + len(pick("x", n))
}

// keep's variadic slice is built by its caller, at the ( of the call
// (counted).
//
//go:noinline
func keep(xs ...int) {
	sinkN = xs
}

//thesaurus:hotpath
func viaVariadic(n int) {
	keep(n, n)
}

type counter struct{ n int }

// What the compiler keeps on the stack is no escape (not counted).
//
//thesaurus:hotpath
func stackOnly(s string) int {
	p := new(int)
	c := &counter{n: len(s)}
	b := []byte(s)
	return *p + c.n + len(b)
}

// decoder is the interface case: a call through it names no callee.
type decoder interface{ decode(n int) int }

type heapDec struct{}

// The walk never reaches heapDec.decode, so its make is not counted: the
// budget fails the interface call instead of guessing its callee.
func (heapDec) decode(n int) int {
	sink = make([]byte, n)
	return n
}

// A call through an interface method (unfollowable).
//
//thesaurus:hotpath
func viaInterface(d decoder, n int) int {
	return d.decode(n)
}

func passthrough(n int) int { return n }

// hook is a package-level function value.
var hook = passthrough

// hooks carries a function value in a struct field.
type hooks struct{ fn func(int) int }

// Calls through function values name no callee, whatever the value holds
// (unfollowable: a local, a package variable, a struct field, a slice
// element and a map entry).
//
//thesaurus:hotpath
func viaFuncValues(n, k int, h hooks, fs []func(int) int, m map[int]func(int) int) int {
	f := passthrough
	return f(n) + hook(n) + h.fn(n) + fs[0](n) + m[k](n)
}
