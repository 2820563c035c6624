package decode

import (
	"encoding/binary"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// scalarCodeword is the test oracle for Encode, Decode and Verify:
// H · B = 0 at every word position, with matrix.MulVec over gf.Mul. It
// shares no code with the compiled kernels or core's executor, so a
// stripe this accepts is a codeword whatever those compute.
func scalarCodeword(c codes.Code, st *stripe.Stripe) bool {
	h := c.ParityCheck()
	wb := c.Field().WordBytes()
	words := make([]uint32, h.Cols())
	for p := 0; p < st.SectorSize(); p += wb {
		for col := range words {
			b := st.Sector(col)[p:]
			switch wb {
			case 1:
				words[col] = uint32(b[0])
			case 2:
				words[col] = uint32(binary.LittleEndian.Uint16(b))
			default:
				words[col] = binary.LittleEndian.Uint32(b)
			}
		}
		for _, v := range h.MulVec(words) {
			if v != 0 {
				return false
			}
		}
	}
	return true
}
