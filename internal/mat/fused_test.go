package mat

import (
	"math"
	"testing"
)

// sumTol returns the checksum comparison tolerance for a problem: the sums
// are reduced with a different rounding association than a reference sweep,
// so they agree to accumulated roundoff, not to the bit.
func sumTol(m, k, n int) float64 {
	dim := float64(max(m, max(k, n)))
	return 1e-11 * dim * dim
}

// refSums derives every checksum with plain scalar sweeps over the final
// operands and result.
func refSums[T Float](c, a, b *Dense[T]) *FusedSums {
	fs := &FusedSums{
		RowSums: make([]float64, c.Rows),
		ColSums: make([]float64, c.Cols),
		ASums:   make([]float64, a.Cols),
		BSums:   make([]float64, b.Rows),
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			fs.RowSums[i] += float64(c.At(i, j))
			fs.ColSums[j] += float64(c.At(i, j))
		}
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			fs.ASums[k] += float64(a.At(i, k))
		}
	}
	for k := 0; k < b.Rows; k++ {
		for j := 0; j < b.Cols; j++ {
			fs.BSums[k] += float64(b.At(k, j))
		}
	}
	return fs
}

func sumsClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d] = %v, want %v (tol %g)", name, i, got[i], want[i], tol)
			return
		}
	}
}

// TestMulAddIntoFusedBitExact is the fused path's determinism contract: c
// must be bit-identical to the naive loop (hence to MulAddInto) across odd
// shapes, strided views, and parallelism 1/2/8, while the fused checksums agree with reference sweeps to roundoff.
func TestMulAddIntoFusedBitExact(t *testing.T) {
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
			wantSums := refSums(want, a, b)
			tol := sumTol(sh.m, sh.k, sh.n)
			for _, par := range []int{1, 2, 8} {
				got := c0.Clone()
				fs := &FusedSums{
					RowSums: make([]float64, sh.m),
					ColSums: make([]float64, sh.n),
					ASums:   make([]float64, sh.k),
					BSums:   make([]float64, sh.k),
				}
				withParallelism(par, func() { MulAddIntoFused(got, a, b, fs) })
				if !bitEqual(got, want) {
					t.Errorf("%dx%dx%d contig=%v par=%d: fused C differs from naive loop (max diff %g)",
						sh.m, sh.k, sh.n, contig, par, maxDiff(got, want))
				}
				sumsClose(t, "RowSums", fs.RowSums, wantSums.RowSums, tol)
				sumsClose(t, "ColSums", fs.ColSums, wantSums.ColSums, tol)
				sumsClose(t, "ASums", fs.ASums, wantSums.ASums, tol)
				sumsClose(t, "BSums", fs.BSums, wantSums.BSums, tol)
			}
		}
	}
}

// TestKernEdgeAllPartialTiles exercises every (rows, cols) fringe the 2×4
// tile can produce, in both precisions — rows ∈ 1..4 (one or two row tiles
// plus a partial), cols ∈ 1..4 — under the plain and fused packed paths,
// asserting bit-equality with the scalar loop. Shapes are built so the
// bottom-right fringe tile is exactly (rows mod mr, cols); k spans below,
// at, and beyond one unroll quantum.
func TestKernEdgeAllPartialTiles(t *testing.T) {
	t.Run("f64", kernEdgeAllPartialTiles[float64])
	t.Run("f32", kernEdgeAllPartialTiles[float32])
}

func kernEdgeAllPartialTiles[T Float](t *testing.T) {
	for rows := 1; rows <= 4; rows++ {
		for cols := 1; cols <= 4; cols++ {
			for _, k := range []int{1, 3, 4, 9} {
				m := mr + rows // one full tile row plus `rows` more
				n := nr + cols // one full tile column plus a partial of exactly `cols`
				a := random[T](m, k, uint64(100*rows+10*cols+k))
				b := random[T](k, n, uint64(200*rows+20*cols+k))
				c0 := random[T](m, n, mr)
				want := c0.Clone()
				naiveMulAdd(want, a, b)

				got := c0.Clone()
				gemmPacked(got, a, b, 1, false, nil)
				if !bitEqual(got, want) {
					t.Fatalf("edge %dx%d k=%d: plain path differs from scalar loop", rows, cols, k)
				}

				got = c0.Clone()
				fa := &fusedAcc{rs: make([]float64, m), cs: make([]float64, n)}
				gemmPacked(got, a, b, 1, false, fa)
				if !bitEqual(got, want) {
					t.Fatalf("edge %dx%d k=%d: fused path differs from scalar loop", rows, cols, k)
				}
				wantSums := refSums(want, a, b)
				tol := sumTol(m, k, n)
				sumsClose(t, "rs", fa.rs, wantSums.RowSums, tol)
				sumsClose(t, "cs", fa.cs, wantSums.ColSums, tol)
			}
		}
	}
}

// TestKernEdgeNaNInfPropagation: partial tiles must propagate NaN/Inf
// exactly like the scalar loop on both paths and in both precisions, and
// the fused checksums must absorb the poison instead of masking it.
func TestKernEdgeNaNInfPropagation(t *testing.T) {
	t.Run("f64", kernEdgeNaNInfPropagation[float64])
	t.Run("f32", kernEdgeNaNInfPropagation[float32])
}

func kernEdgeNaNInfPropagation[T Float](t *testing.T) {
	m, k, n := mr+1, 5, nr+3 // bottom and right fringes both partial
	a := random[T](m, k, 3)
	b := random[T](k, n, 4)
	a.Set(m-1, 2, T(math.NaN())) // lands in the bottom partial tile
	b.Set(1, n-1, T(math.Inf(1)))
	a.Set(0, 1, 0) // 0×Inf = NaN must not be skipped
	c0 := random[T](m, n, 5)
	want := c0.Clone()
	naiveMulAdd(want, a, b)

	got := c0.Clone()
	gemmPacked(got, a, b, 1, false, nil)
	if !bitEqual(got, want) {
		t.Fatal("plain path NaN/Inf propagation differs from scalar loop")
	}
	got = c0.Clone()
	fa := &fusedAcc{rs: make([]float64, m), cs: make([]float64, n)}
	gemmPacked(got, a, b, 1, false, fa)
	if !bitEqual(got, want) {
		t.Fatal("fused path NaN/Inf propagation differs from scalar loop")
	}
	if !math.IsNaN(fa.rs[m-1]) {
		t.Errorf("rs[%d] = %v, want NaN folded from poisoned row", m-1, fa.rs[m-1])
	}
	if !math.IsNaN(fa.cs[n-1]) {
		t.Errorf("cs[%d] = %v, want NaN folded from poisoned column", n-1, fa.cs[n-1])
	}
}

// TestMulAddIntoFusedPartialSums: nil slices skip that accumulation, and
// RowSums/ColSums must be requested together.
func TestMulAddIntoFusedPartialSums(t *testing.T) {
	m, k, n := 20, 30, 25
	a := Random(m, k, 1)
	b := Random(k, n, 2)
	want := New(m, n)
	naiveMulAdd(want, a, b)
	wantSums := refSums(want, a, b)

	got := New(m, n)
	fs := &FusedSums{ASums: make([]float64, k), BSums: make([]float64, k)}
	MulAddIntoFused(got, a, b, fs)
	if !bitEqual(got, want) {
		t.Fatal("operand-sums-only fused call: C differs from naive loop")
	}
	tol := sumTol(m, k, n)
	sumsClose(t, "ASums", fs.ASums, wantSums.ASums, tol)
	sumsClose(t, "BSums", fs.BSums, wantSums.BSums, tol)

	defer func() {
		if recover() == nil {
			t.Error("RowSums without ColSums did not panic")
		}
	}()
	MulAddIntoFused(got, a, b, &FusedSums{RowSums: make([]float64, m)})
}
