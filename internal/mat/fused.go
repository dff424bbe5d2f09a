package mat

import (
	"fmt"
	"sync"
)

// Fused online-ABFT GEMM (FT-BLAS / FT-GEMM direction).
//
// MulAddIntoFused computes the same c += a·b as MulAddInto — bit-identical,
// same determinism contract, in either precision — while deriving the
// checksums an online ABFT verifier needs, in float64, from data the GEMM
// already has in registers or L1:
//
//   - operand checksums (eᵀA, B·e) and operand magnitude statistics
//     (Moments) fall out of the packing copy, so encoding/verification of
//     the inputs costs no extra traversal;
//   - row/column sums of the *output*, and optionally their absolute-value
//     sums, are folded at the final k-block: each finished C value is added
//     to its row and column accumulators right after the tile is stored,
//     while it is still L1-hot.
//
// A two-pass verifier re-reads all of C (O(n²) memory traffic) after the
// multiply; the fused path replaces that with a few adds per element at
// writeback and O(n) traffic at the comparison. Corruption of a C element
// written by an *earlier* panel is still witnessed: the kernel seeds its
// accumulators from the stored (possibly corrupted) value, so the fault
// propagates into the final value the checksum folds in. The absolute sums
// are what make the V-ABFT threshold per-line adaptive: a row's detection
// bound scales with the magnitude that actually flowed through it.
//
// Only c's bits are parallelism-invariant. The checksum sums are reduced in
// deterministic ascending-band order, so they are reproducible for a fixed
// worker count, but their rounding association varies with the band split —
// consumers must compare them against encoded checksums with a tolerance,
// never for bit equality.

// FusedSums receives the checksums and statistics MulAddIntoFused
// accumulates. Each field is optional (nil skips that accumulation);
// non-nil slices must have the exact length noted, and every non-nil field
// is overwritten.
type FusedSums struct {
	RowSums    []float64 // len a.Rows: Σ_j of the final c[i][j]
	ColSums    []float64 // len c.Cols: Σ_i of the final c[i][j]
	AbsRowSums []float64 // len a.Rows: Σ_j |final c[i][j]|
	AbsColSums []float64 // len c.Cols: Σ_i |final c[i][j]|
	ASums      []float64 // len a.Cols: Σ_i a[i][k] (eᵀA, the column checksums)
	BSums      []float64 // len a.Cols: Σ_j b[k][j] (B·e, the row checksums)
	AMoments   *Moments  // magnitude statistics of a's elements
	BMoments   *Moments  // magnitude statistics of b's elements
}

// fusedAcc is the per-band view of the accumulators: rs/cs/ars/acs are
// indexed in the band's local row space / the full column space, asum/bsum
// in k space. Nil fields skip that accumulation.
type fusedAcc struct {
	rs, cs     []float64
	ars, acs   []float64
	asum, bsum []float64
	amom, bmom *Moments
}

// MulAddIntoFused computes c += a×b with checksum accumulation fused into
// the packing and writeback passes. c's result is bit-identical to
// MulAddInto (and to the naive scalar loop) at any blocking or parallelism.
func MulAddIntoFused[T Float](c, a, b *Dense[T], fs *FusedSums) {
	checkShape(c, a, b, "MulAddIntoFused")
	m, kdim, n := a.Rows, a.Cols, c.Cols
	if fs == nil {
		mulAdd(c, a, b, 1, false)
		return
	}
	if (fs.RowSums == nil) != (fs.ColSums == nil) {
		panic("mat: MulAddIntoFused RowSums and ColSums must be set together")
	}
	if (fs.AbsRowSums == nil) != (fs.AbsColSums == nil) || (fs.AbsRowSums != nil && fs.RowSums == nil) {
		panic("mat: MulAddIntoFused AbsRowSums and AbsColSums must be set together, with RowSums")
	}
	for _, s := range []struct {
		sum  []float64
		want int
		name string
	}{
		{fs.RowSums, m, "RowSums"}, {fs.ColSums, n, "ColSums"},
		{fs.AbsRowSums, m, "AbsRowSums"}, {fs.AbsColSums, n, "AbsColSums"},
		{fs.ASums, kdim, "ASums"}, {fs.BSums, kdim, "BSums"},
	} {
		if s.sum != nil && len(s.sum) != s.want {
			panic(fmt.Sprintf("mat: MulAddIntoFused %s length %d, want %d", s.name, len(s.sum), s.want))
		}
		clear(s.sum)
	}
	for _, mo := range []*Moments{fs.AMoments, fs.BMoments} {
		if mo != nil {
			*mo = Moments{}
		}
	}
	if m == 0 || n == 0 || kdim == 0 {
		return
	}
	workers := workersFor(m, 2*m*n*kdim)
	if fs.RowSums == nil {
		// Partial-sum callers still need the operand checksums wired through
		// the pack pass, but without output folding the plain kernels run.
		workers = 1
	}
	if workers <= 1 {
		gemmSerial(c, a, b, 1, false, &fusedAcc{
			rs: fs.RowSums, cs: fs.ColSums, ars: fs.AbsRowSums, acs: fs.AbsColSums,
			asum: fs.ASums, bsum: fs.BSums, amom: fs.AMoments, bmom: fs.BMoments,
		})
		return
	}

	// Parallel: each row band folds into disjoint RowSums/AbsRowSums rows
	// directly and into pooled per-band column/operand partials; bands are
	// reduced in ascending order, so the sums depend only on (shape,
	// workers). BSums/BMoments cover all of b in every band, so only band 0
	// derives them; AMoments is per-band (each band packs its own rows) and
	// merged.
	abs := fs.AbsColSums != nil
	colWidth := n
	if abs {
		colWidth = 2 * n // ColSums ++ AbsColSums
	}
	bands := rowBands(m, workers)
	colParts := make([]*[]float64, len(bands))
	aParts := make([]*[]float64, len(bands))
	aMoms := make([]Moments, len(bands))
	var wg sync.WaitGroup
	for idx, bd := range bands {
		colParts[idx] = getZeroBuf(colWidth)
		if fs.ASums != nil {
			aParts[idx] = getZeroBuf(kdim)
		}
		wg.Add(1)
		go func(idx, lo, hi int) {
			defer wg.Done()
			part := *colParts[idx]
			fa := &fusedAcc{rs: fs.RowSums[lo:hi], cs: part[:n]}
			if abs {
				fa.ars, fa.acs = fs.AbsRowSums[lo:hi], part[n:]
			}
			if aParts[idx] != nil {
				fa.asum = *aParts[idx]
			}
			if fs.AMoments != nil {
				fa.amom = &aMoms[idx]
			}
			if idx == 0 {
				fa.bsum, fa.bmom = fs.BSums, fs.BMoments
			}
			gemmSerial(c.View(lo, 0, hi-lo, n), a.View(lo, 0, hi-lo, kdim), b, 1, false, fa)
		}(idx, bd.lo, bd.hi)
	}
	wg.Wait()
	for idx := range bands {
		part := *colParts[idx]
		for j := 0; j < n; j++ {
			fs.ColSums[j] += part[j]
			if abs {
				fs.AbsColSums[j] += part[n+j]
			}
		}
		putBuf(colParts[idx])
		if aParts[idx] != nil {
			for k, v := range *aParts[idx] {
				fs.ASums[k] += v
			}
			putBuf(aParts[idx])
		}
		if fs.AMoments != nil {
			fs.AMoments.Merge(aMoms[idx])
		}
	}
}

// foldTile adds a stored rows×cols tile's final values into the row and
// column sums at (i, j), and into the absolute sums when those are on. Each
// case is one pass over the L1-hot tile.
func foldTile[T Float](cd []T, ldc, rows, cols int, fa *fusedAcc, i, j int) {
	rs, cs := fa.rs[i:i+rows], fa.cs[j:j+cols]
	if fa.ars == nil {
		for r := 0; r < rows; r++ {
			sum := 0.0
			for c, v := range cd[r*ldc : r*ldc+cols] {
				sum += float64(v)
				cs[c] += float64(v)
			}
			rs[r] += sum
		}
		return
	}
	ars, acs := fa.ars[i:i+rows], fa.acs[j:j+cols]
	for r := 0; r < rows; r++ {
		sum, asum := 0.0, 0.0
		for c, v := range cd[r*ldc : r*ldc+cols] {
			f := float64(v)
			sum += f
			cs[c] += f
			if f < 0 {
				f = -f
			}
			asum += f
			acs[c] += f
		}
		rs[r] += sum
		ars[r] += asum
	}
}

// foldSimple derives the fused sums for the sub-threshold path: the plain
// blocked loop has already run, and one post-pass over the small operands
// and output follows. Below packMinFlops everything is L1-resident, so the
// extra pass costs what folding inside the kernels would have.
func foldSimple[T Float](c, a, b *Dense[T], fa *fusedAcc) {
	if fa.rs != nil {
		foldTile(c.Data, c.Stride, c.Rows, c.Cols, fa, 0, 0)
	}
	if fa.asum != nil || fa.amom != nil {
		for i := 0; i < a.Rows; i++ {
			for k, v := range a.Row(i) {
				if fa.asum != nil {
					fa.asum[k] += float64(v)
				}
				if fa.amom != nil {
					fa.amom.Observe(float64(v))
				}
			}
		}
	}
	if fa.bsum != nil || fa.bmom != nil {
		for k := 0; k < b.Rows; k++ {
			s := 0.0
			for _, v := range b.Row(k) {
				s += float64(v)
				if fa.bmom != nil {
					fa.bmom.Observe(float64(v))
				}
			}
			if fa.bsum != nil {
				fa.bsum[k] += s
			}
		}
	}
}
