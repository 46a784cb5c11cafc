// Package fixalloc is the allocgate violation fixture. Every allocation
// construct the gate knows is staged inside a //thesaurus:hotpath
// closure and paired with its sanctioned counterpart, so the golden
// diagnostics pin both what the analyzer catches and what it leaves
// alone. The pragma-grammar violations for hotpath-pragma live in
// pragmas.go; the test-file case lives in fixalloc_test.go.
package fixalloc

import "fmt"

type counter struct{ n int }

// The core allocation builtins (allocgate: make, new, &composite,
// slice literal, map literal).
//
//thesaurus:hotpath
func allocBuiltins(n int) int {
	buf := make([]byte, n)
	p := new(int)
	c := &counter{}
	s := []int{1, 2}
	m := map[int]int{}
	return len(buf) + *p + c.n + s[0] + len(m)
}

// Value struct and array literals are stack-resident (clean).
//
//thesaurus:hotpath
func valueLiterals() int {
	c := counter{n: 1}
	a := [4]int{1, 2, 3, 4}
	return c.n + a[0]
}

// An append bound with := starts a fresh heap slice (allocgate).
//
//thesaurus:hotpath
func appendFresh(xs []int) int {
	ys := append(xs, 1)
	return len(ys)
}

// x = append(x, …) amortizes into caller-provided capacity (clean).
//
//thesaurus:hotpath
func appendScratch(dst []int, k int) []int {
	dst = append(dst, k)
	return dst
}

// Formatting on the hot path (allocgate: denylisted fmt call).
//
//thesaurus:hotpath
func hotFormat(v int) string {
	return fmt.Sprintf("%d", v)
}

// Panic arguments are exempt: a dying process may format its last words
// (clean).
//
//thesaurus:hotpath
func hotGuard(v int) int {
	if v < 0 {
		panic(fmt.Sprintf("fixalloc: negative %d", v))
	}
	return v
}

// Explicit conversions that box or copy (allocgate: interface boxing,
// string↔[]byte).
//
//thesaurus:hotpath
func boxing(v int, s string) (any, int) {
	b := []byte(s)
	return any(v), len(b)
}

// consume has an interface parameter; passing a value boxes it at the
// call site even though the conversion is implicit.
func consume(v any) int {
	if n, ok := v.(int); ok {
		return n
	}
	return 0
}

// Implicit boxing into an interface parameter (allocgate).
//
//thesaurus:hotpath
func boxingArg(v int) int {
	return consume(v)
}

// Pointer-shaped arguments fit the interface word without boxing
// (clean).
//
//thesaurus:hotpath
func pointerArg(c *counter) int {
	return consume(c)
}

// decoder is the interface case: a call through it names no callee.
type decoder interface{ decode(n int) int }

type heapDec struct{}

// The walk never reaches heapDec.decode, so its make goes unflagged: the
// gate reports the interface call instead of guessing its callee.
func (heapDec) decode(n int) int {
	buf := make([]byte, n)
	return len(buf)
}

// A call through an interface method (allocgate: the call itself).
//
//thesaurus:hotpath
func viaInterface(d decoder, n int) int {
	return d.decode(n)
}

// chainHelper is reached transitively through a plain call (allocgate:
// new here, labelled with the helper, not the root).
func chainHelper(n int) *int {
	p := new(int)
	*p = n
	return p
}

// The root of the plain-call chain (clean itself).
//
//thesaurus:hotpath
func hotChain(n int) int {
	return *chainHelper(n)
}

// pick is reached through an explicit instantiation, which names its
// callee like any direct call (allocgate: new here).
func pick[T any](v T) *T {
	p := new(T)
	*p = v
	return p
}

// The root of the instantiation (clean itself).
//
//thesaurus:hotpath
func hotGeneric(n int) int {
	return *pick[int](n)
}

// ring is the pragma-on-method case.
type ring struct {
	buf []int
	pos int
}

// Push is a hot-path root declared on a method; its steady state stays
// inside caller-owned storage (clean).
//
//thesaurus:hotpath
func (r *ring) Push(v int) {
	if r.pos == len(r.buf) {
		r.grow()
	}
	r.buf[r.pos] = v
	r.pos++
}

// grow is a sanctioned boundary: the walk does not descend, so the
// make/append inside stay unflagged (clean).
//
//thesaurus:allocok amortized capacity growth off the steady-state path
func (r *ring) grow() {
	next := make([]int, 2*len(r.buf)+1)
	copy(next, r.buf)
	r.buf = next
}

// Drain is a method root that allocates its result (allocgate: make).
//
//thesaurus:hotpath
func (r *ring) Drain() []int {
	out := make([]int, r.pos)
	copy(out, r.buf[:r.pos])
	r.pos = 0
	return out
}

// Closure and scheduling constructs (allocgate: method value, function
// literal, go statement, map iteration, defer in loop, and the calls
// through the function values f and g).
//
//thesaurus:hotpath
func closures(r *ring, m map[int]int) int {
	f := r.Push
	g := func(x int) int { return x }
	go g(1)
	total := 0
	for k, v := range m {
		defer r.grow()
		total += k + v
	}
	f(total)
	return g(total)
}

// Direct calls and slice-backed iteration (clean).
//
//thesaurus:hotpath
func direct(r *ring, xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	r.Push(total)
	return total
}

// sink is package-level interface storage: assigning a value into it
// boxes even though no call is in sight.
var sink any

// holder has an interface field for the struct-literal boxing case.
type holder struct{ v any }

// Implicit boxing away from call arguments (allocgate: assignment,
// declaration, return, channel send, struct-literal field; clean for
// pointers, interfaces, and nil).
//
//thesaurus:hotpath
func implicitBoxes(c *counter, ch chan any) any {
	sink = c.n
	sink = c
	sink = nil
	var local any = c.n
	h := holder{v: c.n}
	hp := holder{local}
	ch <- c.n
	ch <- hp.v
	_ = h
	return c.n
}

func passthrough(n int) int { return n }

// hook is a package-level function value.
var hook = passthrough

// hooks carries a function value in a struct field.
type hooks struct{ fn func(int) int }

// Calls through function values name no callee, whatever the value holds
// (allocgate: a local, a package variable, a struct field, a slice
// element and a map entry).
//
//thesaurus:hotpath
func viaFuncValues(n, k int, h hooks, fs []func(int) int, m map[int]func(int) int) int {
	f := passthrough
	return f(n) + hook(n) + h.fn(n) + fs[0](n) + m[k](n)
}
