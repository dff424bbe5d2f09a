package serve

import (
	"context"
	"errors"
	"testing"

	"coopabft/internal/recovery"
)

// expiringCtx is a context whose Err turns non-nil after its first `live`
// calls: a deadline that passes at a chosen point of a run, with no sleeps.
type expiringCtx struct {
	context.Context
	live int
}

func (c *expiringCtx) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.DeadlineExceeded
}

// TestRunLadder32AbortsMidRunOnDeadline: an f32 request whose deadline
// passes after the first panel must abort at the next panel boundary with
// an error wrapping recovery.ErrCancelled and the context's cause — never
// finish the GEMM and report it corrected.
func TestRunLadder32AbortsMidRunOnDeadline(t *testing.T) {
	for _, faults := range []int{0, 2} {
		s := &Service{cfg: Config{MaxRestarts: 2}}
		j := &job{
			ctx: &expiringCtx{Context: context.Background(), live: 1},
			req: Parsed{Kernel: KernelGEMM, N: 96, Seed: 9, Faults: faults, Dtype: DtypeF32},
		}
		rep := s.runLadder32(j)
		if rep.Outcome != recovery.Aborted {
			t.Fatalf("faults=%d: outcome %v, want aborted", faults, rep.Outcome)
		}
		if !errors.Is(rep.Err, recovery.ErrCancelled) || !errors.Is(rep.Err, context.DeadlineExceeded) {
			t.Fatalf("faults=%d: err = %v, want ErrCancelled wrapping DeadlineExceeded", faults, rep.Err)
		}
	}
}
