package sparse

import (
	"fmt"
	"math"
)

// Factor holds numeric Cholesky factor values laid out on a symbolic
// structure: Val[p] corresponds to LRowIdx[p].
type Factor struct {
	S   *Symb
	Val []float64
}

// NewFactor allocates a factor with A's values scattered onto L's
// structure (fill entries start at zero).
func NewFactor(a *Sym, s *Symb) *Factor {
	f := &Factor{S: s, Val: make([]float64, s.LNNZ())}
	for j := 0; j < a.N; j++ {
		arows, avals := a.Col(j)
		lrows := s.LCol(j)
		base := s.LColPtr[j]
		// Both sorted: merge-scan A's column into L's.
		q := 0
		for p, r := range arows {
			for lrows[q] != r {
				q++
			}
			f.Val[base+int64(q)] = avals[p]
		}
	}
	return f
}

// Cholesky performs a serial right-looking sparse Cholesky factorization
// of a, returning the factor (reference implementation for verifying the
// parallel versions).
func Cholesky(a *Sym, s *Symb) (*Factor, error) {
	f := NewFactor(a, s)
	for k := 0; k < s.N; k++ {
		if err := f.CDiv(k); err != nil {
			return nil, err
		}
		rows := s.LCol(k)
		base := f.S.LColPtr[k]
		for p := 1; p < len(rows); p++ {
			f.CMod(int(rows[p]), k, p, base)
		}
	}
	return f, nil
}

// CDiv finalizes column k: take the square root of the diagonal and
// scale the subdiagonal.
func (f *Factor) CDiv(k int) error {
	base := f.S.LColPtr[k]
	d := f.Val[base]
	if d <= 0 {
		return fmt.Errorf("sparse: matrix not positive definite at column %d (pivot %g)", k, d)
	}
	d = math.Sqrt(d)
	f.Val[base] = d
	for p := base + 1; p < f.S.LColPtr[k+1]; p++ {
		f.Val[p] /= d
	}
	return nil
}

// CMod applies the update of source column k (already divided) to target
// column j = rows[p]: L(:,j) -= L(j,k) * L(j:,k). srcPos is the position
// of row j within column k; srcBase is LColPtr[k].
func (f *Factor) CMod(j, k, srcPos int, srcBase int64) {
	s := f.S
	mult := f.Val[srcBase+int64(srcPos)]
	krows := s.LCol(k)
	jrows := s.LCol(j)
	jbase := s.LColPtr[j]
	// Merge-scan: rows of column k at and below j are a subset of
	// column j's rows.
	q := 0
	for p := srcPos; p < len(krows); p++ {
		r := krows[p]
		for jrows[q] != r {
			q++
		}
		f.Val[jbase+int64(q)] -= mult * f.Val[srcBase+int64(p)]
	}
}

// MulVec computes y = L (Lᵀ x), used to verify LLᵀ ≈ A without forming
// the product.
func (f *Factor) MulVec(x []float64) []float64 {
	n := f.S.N
	t := make([]float64, n) // t = Lᵀ x
	for j := 0; j < n; j++ {
		rows := f.S.LCol(j)
		base := f.S.LColPtr[j]
		sum := 0.0
		for p, r := range rows {
			sum += f.Val[base+int64(p)] * x[r]
		}
		t[j] = sum
	}
	y := make([]float64, n) // y = L t
	for j := 0; j < n; j++ {
		rows := f.S.LCol(j)
		base := f.S.LColPtr[j]
		for p, r := range rows {
			y[r] += f.Val[base+int64(p)] * t[j]
		}
	}
	return y
}

// Solve solves A x = b given the factorization A = L Lᵀ, via forward and
// back substitution. b is not modified.
func (f *Factor) Solve(b []float64) []float64 {
	n := f.S.N
	x := make([]float64, n)
	copy(x, b)
	// Forward: L y = b (column-oriented).
	for j := 0; j < n; j++ {
		rows := f.S.LCol(j)
		base := f.S.LColPtr[j]
		x[j] /= f.Val[base]
		for p := 1; p < len(rows); p++ {
			x[rows[p]] -= f.Val[base+int64(p)] * x[j]
		}
	}
	// Backward: Lᵀ x = y (dot products against columns).
	for j := n - 1; j >= 0; j-- {
		rows := f.S.LCol(j)
		base := f.S.LColPtr[j]
		for p := 1; p < len(rows); p++ {
			x[j] -= f.Val[base+int64(p)] * x[rows[p]]
		}
		x[j] /= f.Val[base]
	}
	return x
}

// ResidualNorm returns ‖L Lᵀ x − A x‖∞ / ‖A x‖∞ for a fixed probe vector,
// a cheap certificate that the factorization is correct. It is NaN when
// any entry of the residual is, so a tolerance gate must be written to
// fail on NaN.
func ResidualNorm(a *Sym, f *Factor) float64 {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	want := a.MulVec(x)
	got := f.MulVec(x)
	var num, den float64
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > num || math.IsNaN(d) {
			num = d // a NaN sticks: nothing compares greater
		}
		if d := math.Abs(want[i]); d > den {
			den = d
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

// MaxDiff returns the largest absolute difference between two factors on
// the same structure, or NaN when any difference is NaN.
func MaxDiff(a, b *Factor) float64 {
	var m float64
	for i := range a.Val {
		if d := math.Abs(a.Val[i] - b.Val[i]); d > m || math.IsNaN(d) {
			m = d // a NaN sticks: nothing compares greater
		}
	}
	return m
}
