package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// checkGEMM replays f64 gemm requests against one node with
// integrity=verify-vote, which makes the node ship its product, and compares
// each product with A·B recomputed here by plain mat.Mul on operands rebuilt
// from the request seed. The check shares nothing with the server's own
// oracle. It returns how many answers it compared; wrong answers go to
// wrong, and an error means the replay itself could not run.
func checkGEMM(ctx context.Context, c *client, base string, reqs []serve.Request, wrong func(error)) (int, error) {
	checked := 0
	for _, req := range reqs {
		req.Integrity = serve.IntegrityVerifyVote.String()
		var resp serve.Response
		if _, err := c.do(ctx, http.MethodPost, base+"/v1/gemm", req, &resp); err != nil {
			return checked, fmt.Errorf("answer replay: %w", err)
		}
		switch resp.Outcome {
		case "aborted":
			continue // no answer to check; the timed phase counted it as failed
		case "corrected", "restarted":
		default:
			wrong(fmt.Errorf("%w: replay seed %d -> %q", errTaxonomy, req.Seed, resp.Outcome))
			continue
		}
		checked++
		if err := compareProduct(req.N, req.Seed, resp); err != nil {
			wrong(err)
		}
	}
	return checked, nil
}

// compareProduct checks one shipped gemm product against the local
// recompute, and its signature against the shipped bytes.
func compareProduct(n int, seed uint64, resp serve.Response) error {
	got, err := abft.UnpackBlock(n, n, resp.Answer)
	if err != nil {
		return fmt.Errorf("gemm n=%d seed %d: shipped answer: %v", n, seed, err)
	}
	if sig := abft.BitDigest(got); sig != resp.AnswerSig {
		return fmt.Errorf("gemm n=%d seed %d: signature %s does not match shipped bytes (%s)", n, seed, resp.AnswerSig, sig)
	}
	d, err := abft.NewDGEMM(abft.Standalone(), n, seed)
	if err != nil {
		return fmt.Errorf("gemm n=%d seed %d: rebuild operands: %v", n, seed, err)
	}
	ref := mat.Mul(d.Ac.View(0, 0, n, n), d.Br.View(0, 0, n, n))
	if !mat.Equal(got, ref, d.Tol) {
		return fmt.Errorf("gemm n=%d seed %d: product differs from the client's recompute", n, seed)
	}
	return nil
}

// jobDigest recomputes a sharded gemm job's product on one node and returns
// its bit digest; by the block kernel's ascending-k contract the sharded
// answer must match it bit for bit.
func jobDigest(n int, seed uint64) string {
	c := mat.New(n, n)
	mat.MulAddInto(c, mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	return abft.BitDigest(c)
}

// checkFigure compares one regenerated section with the committed
// paperfigs_output.txt, byte for byte.
func checkFigure(golden, name, rendered string) error {
	if rendered == "" || !strings.Contains(golden, rendered) {
		return fmt.Errorf("paper-eval: %s differs from paperfigs_output.txt:\n%s", name, rendered)
	}
	return nil
}
