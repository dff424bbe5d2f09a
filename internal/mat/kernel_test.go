package mat

import (
	"math"
	"testing"
)

// naiveMulAdd is the scalar reference every GEMM path must match to the
// bit: each element accumulates its k-products in ascending order starting
// from the stored value.
func naiveMulAdd[T Float](c, a, b *Dense[T]) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
}

// bitEqual compares element-wise by bit pattern, so NaNs compare equal to
// themselves and −0 differs from +0. Widening float32 to float64 is exact,
// so one comparison serves both precisions.
func bitEqual[T Float](a, b *Dense[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(float64(a.At(i, j))) != math.Float64bits(float64(b.At(i, j))) {
				return false
			}
		}
	}
	return true
}

// withParallelism runs fn at a fixed worker budget and restores the old one.
func withParallelism(w int, fn func()) {
	old := SetParallelism(w)
	defer SetParallelism(old)
	fn()
}

// strided returns an r×c matrix with Stride > Cols (a view into a wider
// parent) holding deterministic random data.
func strided(r, c int, seed uint64) *Matrix {
	parent := Random(r+2, c+5, seed)
	return parent.View(1, 2, r, c)
}

// TestMulAddIntoBitExact checks the packed/parallel GEMM against the naive
// triple loop to exact bit equality across odd shapes, strided views, and
// parallelism 1/2/8 — the kernel layer's determinism contract.
func TestMulAddIntoBitExact(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {17, 31, 13}, {64, 64, 64},
		{65, 127, 33}, {100, 100, 100}, {129, 65, 97}, {40, 256, 40},
	}
	for _, sh := range shapes {
		for _, contig := range []bool{true, false} {
			var a, b, c0 *Matrix
			if contig {
				a = Random(sh.m, sh.k, uint64(sh.m*1000+sh.k))
				b = Random(sh.k, sh.n, uint64(sh.k*1000+sh.n))
				c0 = Random(sh.m, sh.n, 7)
			} else {
				a = strided(sh.m, sh.k, uint64(sh.m*1000+sh.k))
				b = strided(sh.k, sh.n, uint64(sh.k*1000+sh.n))
				c0 = strided(sh.m, sh.n, 7)
			}
			want := c0.Clone()
			naiveMulAdd(want, a, b)
			for _, par := range []int{1, 2, 8} {
				got := c0.Clone()
				withParallelism(par, func() { MulAddInto(got, a, b) })
				if !bitEqual(got, want) {
					t.Errorf("%dx%dx%d contig=%v par=%d: MulAddInto differs from naive loop (max diff %g)",
						sh.m, sh.k, sh.n, contig, par, maxDiff(got, want))
				}
			}
		}
	}
}

// TestMulAddIntoPropagatesNaNInf: 0×NaN and 0×Inf must poison the output —
// the seed kernel's av == 0 early-skip silently dropped them.
func TestMulAddIntoPropagatesNaNInf(t *testing.T) {
	a := FromSlice(2, 2, []float64{0, 0, 1, 0})
	b := FromSlice(2, 2, []float64{math.NaN(), math.Inf(1), 4, 5})
	c := New(2, 2)
	MulAddInto(c, a, b)
	// Row 0 of a is all zeros: 0·NaN + 0·4 = NaN, 0·Inf + 0·5 = NaN.
	if !math.IsNaN(c.At(0, 0)) || !math.IsNaN(c.At(0, 1)) {
		t.Errorf("zero row × NaN/Inf column = (%g, %g), want NaN", c.At(0, 0), c.At(0, 1))
	}
	// Row 1: 1·NaN + 0·4 = NaN, 1·Inf + 0·5 = Inf.
	if !math.IsNaN(c.At(1, 0)) || !math.IsInf(c.At(1, 1), 1) {
		t.Errorf("second row = (%g, %g), want (NaN, +Inf)", c.At(1, 0), c.At(1, 1))
	}
	// Inf must survive when nothing cancels it: 1·Inf + 0·3 = Inf.
	c2 := New(1, 1)
	MulAddInto(c2, FromSlice(1, 2, []float64{1, 0}), FromSlice(2, 1, []float64{math.Inf(1), 3}))
	if !math.IsInf(c2.At(0, 0), 1) {
		t.Errorf("1·Inf + 0·3 = %g, want +Inf", c2.At(0, 0))
	}
}

// TestSyrkLowerSubDeterministic checks SYRK parallel-vs-serial bit equality
// and its agreement with a scalar reference.
func TestSyrkLowerSubDeterministic(t *testing.T) {
	for _, n := range []int{5, 33, 100, 129} {
		k := n/2 + 3
		l := Random(n, k, uint64(n))
		c0 := Random(n, n, uint64(n)+1)
		// Scalar reference on the lower triangle.
		want := c0.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := want.At(i, j)
				for p := 0; p < k; p++ {
					s -= l.At(i, p) * l.At(j, p)
				}
				want.Set(i, j, s)
			}
		}
		for _, par := range []int{1, 2, 8} {
			got := c0.Clone()
			withParallelism(par, func() { SyrkLowerSub(got, l) })
			if !bitEqual(got, want) {
				t.Errorf("n=%d par=%d: SyrkLowerSub differs from scalar reference", n, par)
			}
		}
	}
}

// TestSolveXLTDeterministic checks the parallel TRSM path against the
// serial one to the bit.
func TestSolveXLTDeterministic(t *testing.T) {
	for _, rows := range []int{3, 64, 150} {
		n := 40
		spd := SymmetricPositiveDefinite(n, 5)
		l := spd.Clone()
		if err := Cholesky(l); err != nil {
			t.Fatal(err)
		}
		b0 := Random(rows, n, uint64(rows))
		var want *Matrix
		withParallelism(1, func() {
			want = b0.Clone()
			SolveXLT(want, l)
		})
		for _, par := range []int{2, 8} {
			got := b0.Clone()
			withParallelism(par, func() { SolveXLT(got, l) })
			if !bitEqual(got, want) {
				t.Errorf("rows=%d par=%d: SolveXLT parallel differs from serial", rows, par)
			}
		}
		// And it actually solves X·Lᵀ = B.
		rec := Mul(want, l.Transpose())
		if !Equal(rec, b0, 1e-8) {
			t.Errorf("rows=%d: X·Lᵀ ≠ B (max diff %g)", rows, maxDiff(rec, b0))
		}
	}
}

// TestMulVecIntoDeterministic checks the parallel row-band MulVec path.
func TestMulVecIntoDeterministic(t *testing.T) {
	for _, n := range []int{10, 300} {
		a := Random(n, n, uint64(n))
		x := RandomVec(n, 9)
		var want []float64
		withParallelism(1, func() { want = MulVec(a, x) })
		for _, par := range []int{2, 8} {
			var got []float64
			withParallelism(par, func() { got = MulVec(a, x) })
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d par=%d: MulVec differs at %d: %v vs %v", n, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCholeskyBlockedParallelBitIdentical: the full blocked factorization —
// panel, TRSM, SYRK — must give identical bits at any worker count.
func TestCholeskyBlockedParallelBitIdentical(t *testing.T) {
	a := SymmetricPositiveDefinite(150, 17)
	var want *Matrix
	withParallelism(1, func() {
		want = a.Clone()
		if err := CholeskyBlocked(want, 32, nil); err != nil {
			t.Fatal(err)
		}
	})
	for _, par := range []int{2, 8} {
		got := a.Clone()
		var err error
		withParallelism(par, func() { err = CholeskyBlocked(got, 32, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got, want) {
			t.Errorf("par=%d: CholeskyBlocked differs from serial (max diff %g)", par, maxDiff(got, want))
		}
	}
}

// TestLUBlockedMatchesUnblocked: the blocked fast path must agree with the
// column-at-a-time reference to factorization roundoff and yield the same
// pivot sequence on well-separated data, and must be bit-identical to
// itself across worker counts.
func TestLUBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{96, 150, 224} {
		a := DiagonallyDominant(n, uint64(n)+55)
		ref := a.Clone()
		refPiv, err := luUnblocked(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want *Matrix
		var wantPiv []int
		withParallelism(1, func() {
			want = a.Clone()
			wantPiv, err = LU(want, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPiv {
			if wantPiv[i] != refPiv[i] {
				t.Fatalf("n=%d: pivot %d differs: %d vs %d", n, i, wantPiv[i], refPiv[i])
			}
		}
		// Factors agree to roundoff and solve the same system.
		xTrue := RandomVec(n, 3)
		b := MulVec(a, xTrue)
		x := SolveLU(want, wantPiv, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d: blocked LU solve x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
		for _, par := range []int{2, 8} {
			got := a.Clone()
			withParallelism(par, func() { _, err = LU(got, nil) })
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got, want) {
				t.Errorf("n=%d par=%d: blocked LU differs from serial", n, par)
			}
		}
	}
}

// TestLUBlockedSingular: the blocked path must still detect singularity.
func TestLUBlockedSingular(t *testing.T) {
	n := 120
	a := DiagonallyDominant(n, 8)
	// Make row 100 a copy of row 99: singular, discovered mid-panel.
	copy(a.Row(100), a.Row(99))
	if _, err := LU(a, nil); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// TestSetParallelism exercises the knob contract.
func TestSetParallelism(t *testing.T) {
	old := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d, want 3", got)
	}
	if prev := SetParallelism(0); prev != 3 {
		t.Errorf("SetParallelism returned %d, want 3", prev)
	}
	if Parallelism() < 1 {
		t.Errorf("reset Parallelism() = %d, want >= 1", Parallelism())
	}
	SetParallelism(old)
}

// TestRowBands sanity-checks the deterministic partitioners.
func TestRowBands(t *testing.T) {
	for _, tc := range []struct{ rows, workers int }{{1, 8}, {7, 2}, {100, 3}, {64, 64}} {
		bands := rowBands(tc.rows, tc.workers)
		if len(bands) > tc.workers+1 {
			t.Errorf("rowBands(%d,%d): %d bands", tc.rows, tc.workers, len(bands))
		}
		next := 0
		for _, b := range bands {
			if b.lo != next || b.hi <= b.lo {
				t.Fatalf("rowBands(%d,%d) = %v: not a disjoint cover", tc.rows, tc.workers, bands)
			}
			next = b.hi
		}
		if next != tc.rows {
			t.Errorf("rowBands(%d,%d) covers %d rows", tc.rows, tc.workers, next)
		}
	}
	for _, tc := range []struct{ n, workers int }{{1, 4}, {50, 3}, {129, 8}} {
		bands := triBands(tc.n, tc.workers)
		next := 0
		for _, b := range bands {
			if b.lo != next || b.hi <= b.lo {
				t.Fatalf("triBands(%d,%d) = %v: not a disjoint cover", tc.n, tc.workers, bands)
			}
			next = b.hi
		}
		if next != tc.n {
			t.Errorf("triBands(%d,%d) covers %d rows", tc.n, tc.workers, next)
		}
	}
}
