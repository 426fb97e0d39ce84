package sparse

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"emuchick/internal/workload"
)

func TestLaplacianStructure(t *testing.T) {
	const n = 4
	m := Laplacian2D(n)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != n*n || m.Cols != n*n {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	// nnz of the 5-point stencil: 5n^2 - 4n.
	want := 5*n*n - 4*n
	if m.NNZ() != want {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), want)
	}
	// Interior rows have exactly 5 entries, corners have 3.
	if m.RowNNZ(n+1) != 5 {
		t.Fatalf("interior row nnz = %d", m.RowNNZ(n+1))
	}
	if m.RowNNZ(0) != 3 || m.RowNNZ(n*n-1) != 3 {
		t.Fatal("corner rows wrong")
	}
}

func TestLaplacianRowSums(t *testing.T) {
	// Applying the Laplacian to the all-ones vector gives the boundary
	// deficit per row: 4 - (#neighbours), i.e. zero for interior rows.
	const n = 8
	m := Laplacian2D(n)
	ones := make([]float64, n*n)
	for i := range ones {
		ones[i] = 1
	}
	y := m.MulVec(ones)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			if y[i*n+j] != 0 {
				t.Fatalf("interior row (%d,%d) sum = %v", i, j, y[i*n+j])
			}
		}
	}
	if y[0] != 2 { // corner: 4 - 2 neighbours
		t.Fatalf("corner row sum = %v", y[0])
	}
}

func TestLaplacianSymmetricAction(t *testing.T) {
	// The 5-point Laplacian is symmetric: x'Ay == y'Ax.
	const n = 6
	m := Laplacian2D(n)
	rng := workload.NewRNG(17)
	x := make([]float64, n*n)
	y := make([]float64, n*n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	ay := m.MulVec(y)
	ax := m.MulVec(x)
	var xAy, yAx float64
	for i := range x {
		xAy += x[i] * ay[i]
		yAx += y[i] * ax[i]
	}
	if math.Abs(xAy-yAx) > 1e-9*math.Abs(xAy) {
		t.Fatalf("asymmetric action: %v vs %v", xAy, yAx)
	}
}

func TestLaplacianPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplacian2D(0) did not panic")
		}
	}()
	Laplacian2D(0)
}

func TestMulVecDimensionCheck(t *testing.T) {
	m := Laplacian2D(3)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	m.MulVec(make([]float64, 4))
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CSR { return Laplacian2D(3) }
	cases := []struct {
		name string
		mut  func(*CSR)
	}{
		{"rowptr start", func(m *CSR) { m.RowPtr[0] = 1 }},
		{"rowptr end", func(m *CSR) { m.RowPtr[m.Rows] = 0 }},
		{"rowptr order", func(m *CSR) { m.RowPtr[1], m.RowPtr[2] = m.RowPtr[2], m.RowPtr[1]+100 }},
		{"column range", func(m *CSR) { m.ColIdx[0] = int64(m.Cols) }},
		{"len mismatch", func(m *CSR) { m.Val = m.Val[:len(m.Val)-1] }},
	}
	for _, c := range cases {
		m := fresh()
		c.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s corruption not caught", c.name)
		}
	}
}

func TestRandomMatrixValid(t *testing.T) {
	m := Random(50, 40, 7, workload.NewRNG(3))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowNNZ(r) > 7 {
			t.Fatalf("row %d has %d nonzeros", r, m.RowNNZ(r))
		}
		// Columns strictly ascending within a row (no duplicates).
		for k := m.RowPtr[r] + 1; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] <= m.ColIdx[k-1] {
				t.Fatalf("row %d columns not strictly ascending", r)
			}
		}
	}
}

// TestRandomMatrixDeterministic: Random is a pure function of its seed;
// 32 constructions in one process each match the first.
func TestRandomMatrixDeterministic(t *testing.T) {
	first := Random(50, 40, 7, workload.NewRNG(3))
	for i := 1; i < 32; i++ {
		if m := Random(50, 40, 7, workload.NewRNG(3)); !reflect.DeepEqual(m, first) {
			t.Fatalf("construction %d of seed 3 differs from the first", i)
		}
	}
}

func TestUsefulBytes(t *testing.T) {
	m := Laplacian2D(4)
	want := int64(m.NNZ())*16 + int64(m.Rows)*16 + int64(m.Cols)*8
	if m.UsefulBytes() != want {
		t.Fatalf("UsefulBytes = %d", m.UsefulBytes())
	}
}

// Property: MulVec is linear — A(ax + by) == a*Ax + b*Ay.
func TestMulVecLinearityProperty(t *testing.T) {
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		rng := workload.NewRNG(seed)
		m := Random(20, 20, 5, rng)
		a := float64(aRaw%8) - 3
		b := float64(bRaw%8) - 3
		x := make([]float64, 20)
		y := make([]float64, 20)
		z := make([]float64, 20)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
			z[i] = a*x[i] + b*y[i]
		}
		az := m.MulVec(z)
		ax := m.MulVec(x)
		ay := m.MulVec(y)
		for i := range az {
			want := a*ax[i] + b*ay[i]
			if math.Abs(az[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Laplacian2D validates and has 5n^2-4n nonzeros for all n.
func TestLaplacianSizeProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%24) + 1
		m := Laplacian2D(n)
		return m.Validate() == nil && m.NNZ() == 5*n*n-4*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
