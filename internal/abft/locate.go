package abft

import (
	"fmt"
	"math"
)

// cellFix is one corrupted element located from line-checksum mismatches:
// C[Row][Col] is rebuilt from the rest of its row when FromRow is set, else
// from the rest of its column, and Delta is that line's mismatch (checksum
// − computed sum, i.e. true − stored value).
type cellFix struct {
	Row, Col int
	FromRow  bool
	Delta    float64
}

// locate maps row/column checksum mismatches to corrupted elements (§2.1).
// One bad row pins every bad column's element to that row (each rebuilt
// from its column); one bad column pins every bad row's; equal counts pair
// rows with columns by delta magnitude, distinct rows and columns each
// carrying a single error. A pair is accepted when its magnitudes differ by
// at most pairTol, or by at most pairRel of the row delta. Any other
// pattern, or an unmatchable pair, exceeds the encoding and returns an
// error wrapping ErrUncorrectable; the fixes paired before an unmatchable
// pair are still returned, and callers apply them.
func locate(rowBad []int, rowDelta []float64, colBad []int, colDelta []float64, pairTol, pairRel float64) ([]cellFix, error) {
	var fixes []cellFix
	switch {
	case len(rowBad) == 0 && len(colBad) == 0:
		return nil, nil
	case len(rowBad) == 1 && len(colBad) >= 1:
		for i, c := range colBad {
			fixes = append(fixes, cellFix{Row: rowBad[0], Col: c, Delta: colDelta[i]})
		}
		return fixes, nil
	case len(colBad) == 1 && len(rowBad) >= 1:
		for i, r := range rowBad {
			fixes = append(fixes, cellFix{Row: r, Col: colBad[0], FromRow: true, Delta: rowDelta[i]})
		}
		return fixes, nil
	case len(rowBad) == len(colBad):
		used := make([]bool, len(colBad))
		for ri, r := range rowBad {
			best, bestDiff := -1, math.Inf(1)
			for ci := range colBad {
				if used[ci] {
					continue
				}
				if diff := math.Abs(math.Abs(rowDelta[ri]) - math.Abs(colDelta[ci])); diff < bestDiff {
					best, bestDiff = ci, diff
				}
			}
			if best < 0 || (bestDiff > pairTol && bestDiff > pairRel*math.Abs(rowDelta[ri])) {
				return fixes, fmt.Errorf("%w: unmatchable row/column deltas", ErrUncorrectable)
			}
			used[best] = true
			fixes = append(fixes, cellFix{Row: r, Col: colBad[best], FromRow: true, Delta: rowDelta[ri]})
		}
		return fixes, nil
	default:
		return nil, fmt.Errorf("%w: %d corrupted rows, %d corrupted columns",
			ErrUncorrectable, len(rowBad), len(colBad))
	}
}
