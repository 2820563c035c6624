package matrix

import "fmt"

// SelectColumns returns the sub-matrix made of the given columns, in the
// given order. This is Step 2 of the decoding process: the faulty-block
// columns become F, the surviving-block columns become S.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	s := New(m.field, m.rows, len(cols))
	for j, c := range cols {
		if c < 0 || c >= m.cols {
			panic(fmt.Sprintf("matrix: column %d out of range [0,%d)", c, m.cols))
		}
		for i := 0; i < m.rows; i++ {
			s.data[i*s.cols+j] = m.data[i*m.cols+c]
		}
	}
	return s
}

// SelectRows returns the sub-matrix made of the given rows, in order.
// This is the partition operation of PPM Step 2: independent sub-matrix
// rows are extracted from H.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	s := New(m.field, len(rows), m.cols)
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", r, m.rows))
		}
		copy(s.data[i*s.cols:(i+1)*s.cols], m.data[r*m.cols:(r+1)*m.cols])
	}
	return s
}

// Stack returns m's rows followed by o's: the matrix [m; o]. Both must
// have the same column count.
func (m *Matrix) Stack(o *Matrix) *Matrix {
	if m.cols != o.cols {
		panic(fmt.Sprintf("matrix: stacking %s on %s", o.Dims(), m.Dims()))
	}
	s := New(m.field, m.rows+o.rows, m.cols)
	copy(s.data, m.data)
	copy(s.data[len(m.data):], o.data)
	return s
}

// SplitRows returns m's first i rows and its remaining rows as two
// matrices, undoing Stack.
func (m *Matrix) SplitRows(i int) (top, bottom *Matrix) {
	if i < 0 || i > m.rows {
		panic(fmt.Sprintf("matrix: split at row %d of %d", i, m.rows))
	}
	top, bottom = New(m.field, i, m.cols), New(m.field, m.rows-i, m.cols)
	copy(top.data, m.data)
	copy(bottom.data, m.data[len(top.data):])
	return top, bottom
}

// NonzeroColumns returns the indices of columns that contain at least
// one nonzero entry. The paper notes that partitioning creates all-zero
// columns in sub-matrices and that those are dropped ("all sub-matrices
// do not include the all zero columns", §III-A).
func (m *Matrix) NonzeroColumns() []int {
	var cols []int
	for j := 0; j < m.cols; j++ {
		if !m.ColumnIsZero(j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// SplitColumns partitions the columns of m into (selected, rest) by a
// membership predicate over column indices, preserving order. Used to
// derive F (faulty columns) and S (surviving columns) in one pass.
func (m *Matrix) SplitColumns(selected func(col int) bool) (sel, rest *Matrix, selCols, restCols []int) {
	for j := 0; j < m.cols; j++ {
		if selected(j) {
			selCols = append(selCols, j)
		} else {
			restCols = append(restCols, j)
		}
	}
	return m.SelectColumns(selCols), m.SelectColumns(restCols), selCols, restCols
}
