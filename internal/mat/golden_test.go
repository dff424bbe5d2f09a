package mat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestFusedSumsGoldenBits pins the exact bits of every fused-sum output —
// float64 row/column/operand sums, float32-path sums, absolute sums and
// operand Moments — at worker budgets 1 and 2. Unlike the bit-exactness
// tests (which pin C against the scalar loop) this pins the checksum
// association: the fold order inside a tile, the pack-pass operand sums,
// the sub-threshold post-pass, and the ascending-band reduction. Shapes
// cover the sub-threshold path, the packed path with fringe tiles on both
// edges, and more than one k-panel. Any kernel refactor must keep every
// digest.
func TestFusedSumsGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	// Recorded from the float64 and float32 kernels before they were merged.
	golden := map[string]uint64{
		"5x7x3/w1/f64":      0x7e08db2ef4f3d3d2,
		"5x7x3/w1/f32":      0xedb00fa61724c2ef,
		"5x7x3/w2/f64":      0x7e08db2ef4f3d3d2,
		"5x7x3/w2/f32":      0xedb00fa61724c2ef,
		"20x30x25/w1/f64":   0x3091ba1810d42fbd,
		"20x30x25/w1/f32":   0xe56c71c7098dc7a5,
		"20x30x25/w2/f64":   0x3091ba1810d42fbd,
		"20x30x25/w2/f32":   0xe56c71c7098dc7a5,
		"48x48x48/w1/f64":   0x0aba64f0e2cc1f2e,
		"48x48x48/w1/f32":   0x5915df0b3d1a4385,
		"48x48x48/w2/f64":   0xcc5a658f119637a8,
		"48x48x48/w2/f32":   0xff6fe9d1d038216b,
		"65x33x67/w1/f64":   0xee839a6a1620ce78,
		"65x33x67/w1/f32":   0xd07675a0f45f3a5e,
		"65x33x67/w2/f64":   0xf26387f3d3bdb11f,
		"65x33x67/w2/f32":   0x8bdb059809f89d55,
		"130x300x51/w1/f64": 0x12499e77ff86b9cd,
		"130x300x51/w1/f32": 0xb4abd13e1879e52d,
		"130x300x51/w2/f64": 0xc216efaca671d4bf,
		"130x300x51/w2/f32": 0x2ef7a7747cbae3ab,
	}
	for _, sh := range []struct{ m, k, n int }{
		{5, 7, 3}, {20, 30, 25}, {48, 48, 48}, {65, 33, 67}, {130, 300, 51},
	} {
		seed := uint64(sh.m*10000 + sh.k*100 + sh.n)
		for _, w := range []int{1, 2} {
			var d64, d32 uint64
			withParallelism(w, func() {
				d64 = digestSums(goldenSums64(centred(Random(sh.m, sh.n, seed)),
					centred(Random(sh.m, sh.k, seed+1)), centred(Random(sh.k, sh.n, seed+2))))
				d32 = digestSums(goldenSums32(centred(Random32(sh.m, sh.n, seed)),
					centred(Random32(sh.m, sh.k, seed+1)), centred(Random32(sh.k, sh.n, seed+2))))
			})
			for dt, got := range map[string]uint64{"f64": d64, "f32": d32} {
				key := fmt.Sprintf("%dx%dx%d/w%d/%s", sh.m, sh.k, sh.n, w, dt)
				if want := golden[key]; got != want {
					t.Errorf("%s: fused-sum digest %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
}

// centred shifts Random's [0, 1) entries to [-0.5, 0.5) so signed and
// absolute sums differ.
func centred[T Float](m *Dense[T]) *Dense[T] {
	for i := range m.Data {
		m.Data[i] -= 0.5
	}
	return m
}

// digestSums hashes the bit patterns of every output, in order.
func digestSums(outs [][]float64, moms []Moments) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, s := range outs {
		for _, v := range s {
			put(math.Float64bits(v))
		}
	}
	for _, mo := range moms {
		put(uint64(mo.Count))
		put(math.Float64bits(mo.SumSq))
		put(math.Float64bits(mo.MaxAbs))
	}
	return h.Sum64()
}

// goldenSums64 runs the float64 fused entry point on c += a·b and returns
// its outputs in digest order.
func goldenSums64(c, a, b *Matrix) ([][]float64, []Moments) {
	fs := &FusedSums{
		RowSums: make([]float64, a.Rows), ColSums: make([]float64, c.Cols),
		ASums: make([]float64, a.Cols), BSums: make([]float64, a.Cols),
	}
	MulAddIntoFused(c, a, b, fs)
	return [][]float64{fs.RowSums, fs.ColSums, fs.ASums, fs.BSums}, nil
}

// goldenSums32 runs the float32 fused entry point on c += a·b and returns
// its outputs in digest order.
func goldenSums32(c, a, b *Matrix32) ([][]float64, []Moments) {
	var am, bm Moments
	fs := &FusedSums{
		RowSums: make([]float64, a.Rows), ColSums: make([]float64, c.Cols),
		AbsRowSums: make([]float64, a.Rows), AbsColSums: make([]float64, c.Cols),
		ASums: make([]float64, a.Cols), BSums: make([]float64, a.Cols),
		AMoments: &am, BMoments: &bm,
	}
	MulAddIntoFused(c, a, b, fs)
	return [][]float64{fs.RowSums, fs.ColSums, fs.AbsRowSums, fs.AbsColSums, fs.ASums, fs.BSums},
		[]Moments{am, bm}
}
