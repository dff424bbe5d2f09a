package abft

import (
	"math"

	"coopabft/internal/mat"
)

// V-ABFT-style adaptive detection thresholds for the float32 path.
//
// The float64 kernels compare checksums against a fixed epsilon (DGEMM's
// Tol = 1e-9·n²). That is safe at double precision, where rounding noise is
// ~9 orders of magnitude below any fault worth catching. At float32 the
// margin collapses: legitimate rounding drift of a k-long accumulation
// scales with k·u32·|data|, so a fixed bound either sits below the drift of
// high-variance operands (false positives → restart storms) or above the
// faults of low-magnitude operands (silent misses). Following V-ABFT
// (PAPERS.md), the bound is instead derived per run from operand
// variance/magnitude statistics the packing pass gathers for free
// (mat.Moments, mat.FusedSums).
//
// Derivation (DESIGN.md §9 has the long form). Each float32 output element
// after kAcc accumulated products carries rounding error at most
//
//	|e_ij| ≤ γ_k · Σ_p |a_ip·b_pj|,  γ_k ≈ kAcc·u32,
//
// and a line (row/column) check sums lineLen such elements. Two regimes
// bound Σ|a·b| without an O(n³) exact pass:
//
//   - Non-cancelling data: partial sums grow monotonically toward the final
//     value, so Σ_j |e_ij| ≤ u32·kAcc·Σ_j|c_ij| — the folded absolute line
//     sum the fused kernel already accumulates (AbsRowSums/AbsColSums).
//   - Cancelling data: partials can exceed the final |c|, so the absolute
//     sum underestimates. Cauchy–Schwarz bounds the per-step magnitude by
//     the operands' RMS: Σ_p|a||b| ≤ kAcc·rms(A)·rms(B), and modelling the
//     per-step rounding as a √kAcc random walk gives the second term
//     u32·kAcc^{3/2}·lineLen·rms(A)·rms(B).
//
// The sum of both, scaled by the safety factor ThresholdLambda (calibrated
// by the property tests in gemm32_test.go across tall-skinny, batched-small
// and large-variance distributions), is the detection bound: clean runs sit
// a factor ≥ λ below it, injected faults above it are flagged.

// u32 is the float32 unit roundoff, 2⁻²⁴.
const u32 = 1.0 / (1 << 24)

// eps64 is the float64 unit roundoff, 2⁻⁵³.
const eps64 = 1.0 / (1 << 53)

// ThresholdLambda is the safety factor between the modelled rounding drift
// and the detection bound. Calibrated by the adversarial-distribution
// property tests: large enough that clean runs never false-positive, small
// enough that any fault that matters (≥ one output ulp at line granularity)
// is detected.
const ThresholdLambda = 8.0

// LineBound32 returns the detection bound for one output line (row or
// column) of the float32 GEMM: the maintained float64 checksum and the
// kernel-folded float64 sum of the line may differ by at most this much on
// a clean run. kAcc is the number of k-products accumulated so far, lineLen
// the number of elements summed along the line, absSum the folded Σ|c| of
// the line, and a/b the operand magnitude statistics from packing.
func LineBound32(kAcc, lineLen int, absSum float64, a, b mat.Moments) float64 {
	k := float64(kAcc)
	rms := math.Sqrt(a.MeanSq() * b.MeanSq())
	return ThresholdLambda * u32 * k * (absSum + math.Sqrt(k)*float64(lineLen)*rms)
}

// ElementBound32 returns the per-element oracle tolerance of the float32
// GEMM: how far a delivered float32 element may sit from the float64
// reference value ref on a clean run.
func ElementBound32(kAcc int, ref float64, a, b mat.Moments) float64 {
	k := float64(kAcc)
	rms := math.Sqrt(a.MeanSq() * b.MeanSq())
	return ThresholdLambda * u32 * k * (math.Abs(ref) + math.Sqrt(k)*rms)
}

// OperandBound32 bounds the difference between two float64 sums of the same
// count float32 values under different associativity (the packed operand
// checksum vs the encoded one). Pure float64 rounding: each association's
// error is below count·eps64·Σ|v| ≤ count²·eps64·maxAbs; both sides plus a
// 2× margin gives the factor 4. Far below any float32 bit flip's effect, so
// operand corruption is detected at effectively full precision.
func OperandBound32(count int, mom mat.Moments) float64 {
	n := float64(count)
	return 4*eps64*n*n*mom.MaxAbs + eps64
}
