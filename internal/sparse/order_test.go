package sparse

import (
	"testing"
	"testing/quick"
)

func TestNestedDissectionIsPermutation(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16, 25} {
		perm := NestedDissectionGrid(nil, k)
		if len(perm) != k*k {
			t.Fatalf("k=%d: perm length %d", k, len(perm))
		}
		seen := make([]bool, k*k)
		for _, v := range perm {
			if v < 0 || int(v) >= k*k || seen[v] {
				t.Fatalf("k=%d: invalid/duplicate %d", k, v)
			}
			seen[v] = true
		}
	}
}

func TestPermuteRoundTripSpectrum(t *testing.T) {
	// P A Pᵀ must represent the same operator: (PAPᵀ)(Px) = P(Ax).
	a := GridLaplacian(nil, 5)
	perm := NestedDissectionGrid(nil, 5)
	ap := Permute(nil, a, perm, nil)
	if err := ap.Check(); err != nil {
		t.Fatal(err)
	}
	if ap.NNZ() != a.NNZ() {
		t.Fatalf("permutation changed nnz: %d vs %d", ap.NNZ(), a.NNZ())
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i*i%13) - 3
	}
	px := make([]float64, a.N)
	for newI, old := range perm {
		px[newI] = x[old]
	}
	ax := a.MulVec(x)
	apx := ap.MulVec(px)
	for newI, old := range perm {
		if d := apx[newI] - ax[old]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("operator changed by permutation at %d: %g", newI, d)
		}
	}
}

func TestNDReducesEtreeHeight(t *testing.T) {
	// The point of nested dissection: the elimination tree gets bushy.
	k := 16
	nat := Analyze(nil, GridLaplacian(nil, k), nil)
	nd := Analyze(nil, GridLaplacianND(nil, k, nil), nil)
	height := func(parent []int32) int {
		depth := make([]int, len(parent))
		max := 0
		// Parents always have larger indices, so a forward pass works.
		for j := len(parent) - 1; j >= 0; j-- {
			d := 1
			for p := parent[j]; p != -1; p = parent[p] {
				d++
			}
			depth[j] = d
			if d > max {
				max = d
			}
		}
		return max
	}
	hNat, hND := height(nat.Parent), height(nd.Parent)
	if hND*2 > hNat {
		t.Fatalf("ND etree height %d not much smaller than natural %d", hND, hNat)
	}
}

func TestNDFactorizes(t *testing.T) {
	a := GridLaplacianND(nil, 12, nil)
	s := Analyze(nil, a, nil)
	f, err := Cholesky(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, f); r > 1e-10 {
		t.Fatalf("residual = %g", r)
	}
}

func TestPermutePreservesSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomSPD(40, 3, seed)
		perm := NestedDissectionGrid(nil, 6) // any permutation of 36 < 40? sizes must match
		_ = perm
		// Use an involution permutation of the right size instead.
		p := make([]int32, a.N)
		for i := range p {
			p[i] = int32(a.N - 1 - i)
		}
		ap := Permute(nil, a, p, nil)
		if ap.Check() != nil {
			return false
		}
		s := Analyze(nil, ap, nil)
		_, err := Cholesky(ap, s)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
