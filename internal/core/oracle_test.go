package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// The scalar oracle: Steps 2-4 of the traditional decode solved one
// word position at a time with matrix.MulVec over gf.Mul. It shares no
// code with the compiled kernels or the executor, so the executor's
// results are checked against an independent computation, never only
// against themselves.

// scalarDecode recovers the scenario's faulty sectors of st in place:
// B_F = F^-1 · S · B_S at every word position. Over-determined patterns
// keep a square invertible subset of equations; a singular F is an
// error.
func scalarDecode(c codes.Code, st *stripe.Stripe, sc codes.Scenario) error {
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() < fM.Cols() {
		return fmt.Errorf("%d erasures exceed %d parity-check rows", fM.Cols(), fM.Rows())
	}
	if fM.Rows() > fM.Cols() {
		rows, err := fM.PivotRows()
		if err != nil {
			return err
		}
		fM, sM = fM.SelectRows(rows), sM.SelectRows(rows)
	}
	finv, err := fM.Invert()
	if err != nil {
		return err
	}
	wb := c.Field().WordBytes()
	bs := make([]uint32, len(sCols))
	for p := 0; p < st.SectorSize(); p += wb {
		for i, col := range sCols {
			bs[i] = readWord(st.Sector(col)[p:], wb)
		}
		for i, w := range finv.MulVec(sM.MulVec(bs)) {
			putWord(st.Sector(fCols[i])[p:], wb, w)
		}
	}
	return nil
}

// scalarEncode computes every parity sector of st with scalarDecode.
func scalarEncode(t *testing.T, c codes.Code, st *stripe.Stripe) {
	t.Helper()
	if err := scalarDecode(c, st, codes.EncodingScenario(c)); err != nil {
		t.Fatalf("scalar encode: %v", err)
	}
}

// scalarCodeword reports whether H · B = 0 at every word position.
func scalarCodeword(c codes.Code, st *stripe.Stripe) bool {
	h := c.ParityCheck()
	wb := c.Field().WordBytes()
	words := make([]uint32, h.Cols())
	for p := 0; p < st.SectorSize(); p += wb {
		for col := range words {
			words[col] = readWord(st.Sector(col)[p:], wb)
		}
		for _, v := range h.MulVec(words) {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

func readWord(b []byte, wb int) uint32 {
	switch wb {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}

func putWord(b []byte, wb int, w uint32) {
	switch wb {
	case 1:
		b[0] = byte(w)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(w))
	default:
		binary.LittleEndian.PutUint32(b, w)
	}
}
