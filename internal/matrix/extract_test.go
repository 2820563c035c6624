package matrix

import (
	"math/rand"
	"reflect"
	"testing"

	"ppm/internal/gf"
)

func TestSelectColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
	})
	s := m.SelectColumns([]int{3, 1})
	want := FromRows(gf.GF8, [][]uint32{
		{4, 2},
		{8, 6},
	})
	if !s.Equal(want) {
		t.Fatalf("got\n%vwant\n%v", s, want)
	}
	if got := m.SelectColumns(nil); got.Cols() != 0 || got.Rows() != 2 {
		t.Fatalf("empty selection dims = %s", got.Dims())
	}
}

func TestSelectColumnsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	New(gf.GF8, 2, 2).SelectColumns([]int{2})
}

func TestSelectRows(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{1, 2},
		{3, 4},
		{5, 6},
	})
	s := m.SelectRows([]int{2, 0})
	want := FromRows(gf.GF8, [][]uint32{
		{5, 6},
		{1, 2},
	})
	if !s.Equal(want) {
		t.Fatalf("got\n%vwant\n%v", s, want)
	}
	// SplitRows and Stack undo each other.
	top, bottom := m.SplitRows(1)
	if !top.Equal(m.SelectRows([]int{0})) || !bottom.Equal(m.SelectRows([]int{1, 2})) {
		t.Fatalf("split at row 1 gave\n%vand\n%v", top, bottom)
	}
	if got := top.Stack(bottom); !got.Equal(m) {
		t.Fatalf("stacked\n%vwant\n%v", got, m)
	}
}

func TestSelectRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	New(gf.GF8, 2, 2).SelectRows([]int{-1})
}

func TestNonzeroColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{0, 1, 0, 2},
		{0, 0, 0, 3},
	})
	if got := m.NonzeroColumns(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("NonzeroColumns = %v", got)
	}
	if got := New(gf.GF8, 2, 3).NonzeroColumns(); got != nil {
		t.Fatalf("all-zero matrix NonzeroColumns = %v", got)
	}
}

func TestSplitColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{10, 11, 12, 13, 14},
	})
	faulty := map[int]bool{1: true, 4: true}
	sel, rest, selCols, restCols := m.SplitColumns(func(c int) bool { return faulty[c] })
	if !reflect.DeepEqual(selCols, []int{1, 4}) || !reflect.DeepEqual(restCols, []int{0, 2, 3}) {
		t.Fatalf("split cols = %v / %v", selCols, restCols)
	}
	if sel.At(0, 0) != 11 || sel.At(0, 1) != 14 {
		t.Fatalf("sel = %v", sel)
	}
	if rest.At(0, 0) != 10 || rest.At(0, 2) != 13 {
		t.Fatalf("rest = %v", rest)
	}
}

// TestSplitReassemble: selecting complementary column sets preserves all
// entries (F plus S account for every column of H, Step 2 of §II-B).
func TestSplitReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := randomMatrix(rng, gf.GF8, 5, 9)
	isSel := func(c int) bool { return c%3 == 0 }
	sel, rest, selCols, restCols := m.SplitColumns(isSel)
	if sel.Cols()+rest.Cols() != m.Cols() {
		t.Fatal("column counts do not add up")
	}
	for j, c := range selCols {
		for i := 0; i < m.Rows(); i++ {
			if sel.At(i, j) != m.At(i, c) {
				t.Fatal("sel entry mismatch")
			}
		}
	}
	for j, c := range restCols {
		for i := 0; i < m.Rows(); i++ {
			if rest.At(i, j) != m.At(i, c) {
				t.Fatal("rest entry mismatch")
			}
		}
	}
}
