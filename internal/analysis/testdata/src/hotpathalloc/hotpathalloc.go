// Testdata for the hotpathalloc analyzer: every allocating construct the
// check knows, plus the shapes it must leave alone.
package hotpathalloc

import "fmt"

type buf struct {
	evs []int
}

func take(x interface{}) { _ = x }

//emu:hotpath
func (b *buf) push(v int) {
	b.evs = append(b.evs, v)
}

//emu:hotpath reslicing the base still reuses its storage
func (b *buf) reset(v int) {
	b.evs = append(b.evs[:0], v)
}

//emu:hotpath
func grow(b *buf, v int) []int {
	h := append(b.evs, v) // want `append to b\.evs assigned to h`
	return h
}

//emu:hotpath
func nested(b *buf, v int) int {
	return len(append(b.evs, v)) // want `append result is discarded or not reassigned`
}

//emu:hotpath
func format(v int) string {
	return fmt.Sprintf("%d", v) // want `fmt\.Sprintf allocates`
}

//emu:hotpath
func build(n int) []int {
	s := make([]int, n) // want `make allocates`
	return s
}

//emu:hotpath
func literal() []int {
	return []int{1, 2} // want `slice literal allocates`
}

//emu:hotpath
func table() map[string]int {
	return map[string]int{} // want `map literal allocates`
}

// structLiteralsAreFine: a by-value struct literal lives on the stack.
type pair struct{ a, b int }

//emu:hotpath
func structLiteralsAreFine(a, b int) pair {
	return pair{a: a, b: b}
}

//emu:hotpath
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//emu:hotpath
func toBytes(s string) []byte {
	return []byte(s) // want `conversion between string and byte/rune slice`
}

//emu:hotpath
func closure() func() {
	return func() {} // want `function literal may escape`
}

//emu:hotpath
func box(v int) {
	take(v) // want `int is boxed into interface`
}

//emu:hotpath pointers ride in the interface data word unboxed
func boxPointer(b *buf) {
	take(b)
}

//emu:hotpath panic arguments are cold by construction
func guard(v int) {
	if v < 0 {
		panic(fmt.Sprintf("negative: %d", v))
	}
}

// unannotated functions allocate freely; only //emu:hotpath opts in.
func unannotated() []int {
	return []int{1}
}
