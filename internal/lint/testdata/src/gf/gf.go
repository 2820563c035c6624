// Package gf is a fixture stub mirroring the shape of the real
// internal/gf package: the analyzers match region operations by
// package name and method name, so fixtures exercise them against this
// stub without importing the real module.
package gf

// Field is the stub field interface.
type Field interface {
	WordBytes() int
	MultXORs(dst, src []byte, a uint32)
	MulRegion(dst, src []byte, a uint32)
}

type field16 struct{}

func (field16) WordBytes() int                      { return 2 }
func (field16) MultXORs(dst, src []byte, a uint32)  {}
func (field16) MulRegion(dst, src []byte, a uint32) {}

// New16 exposes the concrete 16-bit stub field.
func New16() *field16 { return &field16{} }

// Multiplier mirrors the single-constant region multiplier.
type Multiplier interface {
	MultXOR(dst, src []byte)
}

// RowBlock mirrors the row-block kernel: Apply(out, in, overwrite).
type RowBlock struct{}

// Apply mirrors RowBlock.Apply.
func (*RowBlock) Apply(out, in [][]byte, overwrite bool) {}
