// Package blk is the hotalloc fixture for the row-block driver idiom:
// the kernel's argument block of region and matrix pointers lives in a
// stack variable. Spelling it as an address-taken composite literal or
// as a slice of pointers allocates on every call.
package blk

// args mirrors the row-block kernel's argument block.
type args struct {
	dst [4]*byte
	src [16]*byte
}

// kernel stands in for the non-escaping assembly entry point.
func kernel(a *args, n int) { _ = a.dst[0] }

// drive fills a stack argument block: clean.
//
//ppm:hotpath
func drive(out, in [][]byte) {
	var a args
	for i := range out {
		a.dst[i] = &out[i][0]
	}
	for k := range in {
		a.src[k] = &in[k][0]
	}
	kernel(&a, len(out[0]))
}

// driveHeap builds the block and a pointer slice per call: flagged.
//
//ppm:hotpath
func driveHeap(out, in [][]byte) {
	a := &args{}               // want "&composite literal allocates"
	srcs := []*byte{&in[0][0]} // want "slice literal allocates"
	a.src[0] = srcs[0]
	kernel(a, len(out[0]))
}
