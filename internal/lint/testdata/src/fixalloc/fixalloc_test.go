package fixalloc

// Test-only roots gate nothing in production (hotpath-pragma: pragma in
// a _test.go file; the escape budget ignores the root entirely).
//
//thesaurus:hotpath
func testOnlyRoot(n int) []byte {
	return make([]byte, n)
}
