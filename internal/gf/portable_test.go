package gf

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPortablePathParity pins the portable table kernels against the
// hardware path on the same inputs. On GFNI-capable amd64 this is a
// true differential test between the two implementations; elsewhere
// both runs take the portable path and the test degenerates to a
// self-consistency check, which is still what CI's PPM_NO_GFNI=1 lane
// expects to see exercised.
func TestPortablePathParity(t *testing.T) {
	const n = 1 << 12
	src := make([]byte, n)
	src2 := make([]byte, n)
	for i := range src {
		src[i] = byte(i*131 + 7)
		src2[i] = byte(i * 29)
	}

	run := func(affine bool) map[string][]byte {
		defer SetAffineKernels(SetAffineKernels(affine))
		out := map[string][]byte{}
		for _, field := range []Field{GF8, GF16, GF32} {
			mask := uint32(field.Order() - 1)
			for _, c := range []uint32{1, 2, 0x1D & mask, mask} {
				key := fmt.Sprintf("GF%d/c=%#x", field.W(), c)

				dst := make([]byte, n)
				field.MultXORs(dst, src, c)
				out[key+"/multxors"] = dst

				dst = make([]byte, n)
				field.MulRegion(dst, src, c)
				out[key+"/mulregion"] = dst

				dst = make([]byte, n)
				row := compileOne(field, []int{0}, [][]uint32{{c, (c * 3) & mask}})
				row.Apply([][]byte{dst}, [][]byte{src, src2}, false)
				out[key+"/row"] = dst
			}
		}
		return out
	}

	portable := run(false)
	hardware := run(true) // no-op flip on hardware without GFNI
	for key, want := range portable {
		got := hardware[key]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: portable and active paths disagree at byte %d: %#x vs %#x",
					key, i, want[i], got[i])
			}
		}
	}
}

// TestNoGFNIEnvDisablesAffine re-executes the test binary with
// PPM_NO_GFNI=1 and checks that the affine kernels come up disabled —
// the knob CI's portable lane relies on is an init-time decision, so
// it needs a fresh process to observe.
func TestNoGFNIEnvDisablesAffine(t *testing.T) {
	if os.Getenv("PPM_GF_AFFINE_PROBE") == "1" {
		fmt.Printf("affine=%v\n", AffineKernels())
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	cmd := exec.Command(exe, "-test.run=TestNoGFNIEnvDisablesAffine", "-test.v")
	cmd.Env = append(os.Environ(), "PPM_GF_AFFINE_PROBE=1", "PPM_NO_GFNI=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("probe process failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "affine=false") {
		t.Errorf("PPM_NO_GFNI=1 did not disable affine kernels:\n%s", out)
	}
}
