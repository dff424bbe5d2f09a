package mat

import (
	"math"
	"testing"
)

// refMulAdd32 is the scalar float32 reference: ascending-k accumulation per
// element — the bit contract every dispatch path must match.
func refMulAdd32(c, a, b *Matrix32) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, s)
		}
	}
}

func bitsEqual32(t *testing.T, got, want *Matrix32, label string) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float32bits(got.At(i, j)) != math.Float32bits(want.At(i, j)) {
				t.Fatalf("%s: bits differ at (%d,%d): got %v want %v", label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestMulAddInto32BitExact: the packed/banded float32 path must be
// bit-identical to the scalar loop at every shape and worker count —
// including shapes that exercise fringe tiles and the ML-inference
// tall-skinny/batched-small geometries.
func TestMulAddInto32BitExact(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{5, 7, 3}, {16, 16, 16}, {64, 64, 64}, {65, 33, 67},
		{130, 97, 51}, {256, 64, 8}, {8, 256, 96},
	}
	for _, sh := range shapes {
		a := Random32(sh.m, sh.k, 11)
		b := Random32(sh.k, sh.n, 22)
		want := Random32(sh.m, sh.n, 33)
		refMulAdd32(want, a, b)
		for _, w := range []int{1, 2, 3, 7} {
			old := SetParallelism(w)
			got := Random32(sh.m, sh.n, 33)
			MulAddInto32(got, a, b)
			SetParallelism(old)
			bitsEqual32(t, got, want, "MulAddInto32")
		}
	}
}

// TestMulAddIntoFused32 checks that the fused path (a) leaves c bit-identical
// to the plain path and (b) derives sums and statistics that match direct
// float64 computation within float64 rounding.
func TestMulAddIntoFused32(t *testing.T) {
	for _, w := range []int{1, 3} {
		old := SetParallelism(w)
		m, k, n := 96, 80, 72
		a := Random32(m, k, 5)
		b := Random32(k, n, 6)
		want := New32(m, n)
		refMulAdd32(want, a, b)

		c := New32(m, n)
		fs := &FusedSums{
			RowSums: make([]float64, m), ColSums: make([]float64, n),
			AbsRowSums: make([]float64, m), AbsColSums: make([]float64, n),
			ASums: make([]float64, k), BSums: make([]float64, k),
			AMoments: &Moments{}, BMoments: &Moments{},
		}
		MulAddIntoFused(c, a, b, fs)
		SetParallelism(old)
		bitsEqual32(t, c, want, "MulAddIntoFused")

		tol := 1e-9
		for i := 0; i < m; i++ {
			rs, ars := 0.0, 0.0
			for j := 0; j < n; j++ {
				v := float64(c.At(i, j))
				rs += v
				ars += math.Abs(v)
			}
			if math.Abs(rs-fs.RowSums[i]) > tol*(1+math.Abs(rs)) {
				t.Fatalf("workers=%d RowSums[%d] = %g, want %g", w, i, fs.RowSums[i], rs)
			}
			if math.Abs(ars-fs.AbsRowSums[i]) > tol*(1+ars) {
				t.Fatalf("workers=%d AbsRowSums[%d] = %g, want %g", w, i, fs.AbsRowSums[i], ars)
			}
		}
		for j := 0; j < n; j++ {
			cs := 0.0
			for i := 0; i < m; i++ {
				cs += float64(c.At(i, j))
			}
			if math.Abs(cs-fs.ColSums[j]) > tol*(1+math.Abs(cs)) {
				t.Fatalf("workers=%d ColSums[%d] = %g, want %g", w, j, fs.ColSums[j], cs)
			}
		}
		for p := 0; p < k; p++ {
			as, bs := 0.0, 0.0
			for i := 0; i < m; i++ {
				as += float64(a.At(i, p))
			}
			for j := 0; j < n; j++ {
				bs += float64(b.At(p, j))
			}
			if math.Abs(as-fs.ASums[p]) > tol {
				t.Fatalf("workers=%d ASums[%d] = %g, want %g", w, p, fs.ASums[p], as)
			}
			if math.Abs(bs-fs.BSums[p]) > tol {
				t.Fatalf("workers=%d BSums[%d] = %g, want %g", w, p, fs.BSums[p], bs)
			}
		}
		if fs.AMoments.Count != m*k || fs.BMoments.Count != k*n {
			t.Fatalf("workers=%d moment counts %d/%d, want %d/%d",
				w, fs.AMoments.Count, fs.BMoments.Count, m*k, k*n)
		}
		if fs.AMoments.MaxAbs <= 0 || fs.AMoments.MaxAbs >= 1 || fs.BMoments.RMS() <= 0 {
			t.Fatalf("workers=%d implausible moments: %+v %+v", w, fs.AMoments, fs.BMoments)
		}
	}
}

// TestRandom32MatchesRandom: the float32 generator is elementwise the
// float64 stream, so seeds are interchangeable across precisions.
func TestRandom32MatchesRandom(t *testing.T) {
	m64 := Random(7, 9, 42)
	m32 := Random32(7, 9, 42)
	for i := 0; i < 7; i++ {
		for j := 0; j < 9; j++ {
			if m32.At(i, j) != float32(m64.At(i, j)) {
				t.Fatalf("Random32(%d,%d) = %v, want float32(%v)", i, j, m32.At(i, j), m64.At(i, j))
			}
		}
	}
}
