package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/recovery"
)

// execute runs one admitted request through the recovery ladder and
// classifies it. Every request gets a fresh functional node configured for
// its own ECC strategy — the per-request malloc_ecc decision — so
// concurrent requests share no machine state.
func (s *Service) execute(j *job, batchSize int, wait time.Duration) Response {
	s.m.Running.Add(1)
	defer s.m.Running.Add(-1)

	start := time.Now()
	var rep recovery.Report
	var w recovery.Workload
	if j.req.Dtype == DtypeF32 {
		rep = s.runLadder32(j)
	} else {
		rep, w = s.runLadder(j)
	}
	run := time.Since(start)

	resp := Response{
		Kernel:       j.req.Kernel.String(),
		N:            j.req.Size(),
		Strategy:     j.req.Strategy.String(),
		VerifyMode:   j.req.Mode.String(),
		Tenant:       j.req.Tenant,
		Outcome:      rep.Outcome.String(),
		Injected:     rep.Injected,
		HWCorrected:  int(rep.HWCorrected),
		Corrections:  rep.Corrections,
		Degradations: rep.Degradations,
		Restarts:     rep.Restarts,
		BatchSize:    batchSize,
		QueueMS:      float64(wait) / float64(time.Millisecond),
		RunMS:        float64(run) / float64(time.Millisecond),
	}
	if j.req.Dtype == DtypeF32 {
		resp.Dtype = j.req.Dtype.String()
	}
	if rep.Err != nil {
		resp.Error = rep.Err.Error()
	}
	s.stampIntegrity(&resp, j.req, rep, w)

	switch rep.Outcome {
	case recovery.Corrected:
		s.m.Corrected.Add(1)
	case recovery.Restarted:
		s.m.Restarted.Add(1)
	default:
		s.m.Aborted.Add(1)
	}
	s.m.Tenant(j.req.Tenant).Completed.Add(1)
	s.m.InjectedFaults.Add(int64(rep.Injected))
	s.m.ABFTCorrections.Add(int64(rep.Corrections))
	s.m.Restarts.Add(int64(rep.Restarts))
	s.m.QueueMSSum.Add(resp.QueueMS)
	s.m.RunMSSum.Add(resp.RunMS)
	return resp
}

// runLadder builds runtime + workload + injection plan and drives the
// coordinator under a panic guard: a kernel panic becomes an Aborted
// classification, never a crashed worker. The runtime is the functional
// platform: the same ECC, OS and recovery behaviour as the timed one
// (TestSoakTimedMatchesFunctional holds them equal) without paying for the
// cache/DRAM timing model on every request. The workload is returned
// alongside the report so the integrity tier can fingerprint its answer
// state; it is nil when construction failed or the kernel panicked.
func (s *Service) runLadder(j *job) (rep recovery.Report, w recovery.Workload) {
	defer func() {
		if p := recover(); p != nil {
			rep = recovery.Report{Outcome: recovery.Aborted,
				Err: fmt.Errorf("serve: kernel panicked: %v", p)}
			w = nil
		}
	}()

	p := j.req
	rt := core.NewFunctionalRuntime(machine.ScaledConfig(32), p.Strategy, int64(p.Seed))
	var err error
	switch p.Kernel {
	case KernelCholesky:
		w, err = recovery.NewCholeskyWorkload(rt, p.N, p.Seed)
	case KernelCG:
		w, err = recovery.NewCGWorkload(rt, p.NX, p.NY, p.Seed)
	default:
		w, err = recovery.NewDGEMMWorkload(rt, p.N, p.Seed, p.Mode)
	}
	if err != nil {
		return recovery.Report{Outcome: recovery.Aborted, Err: err}, nil
	}

	co := &recovery.Coordinator{
		RT:          rt,
		W:           w,
		Plan:        injectionPlan(p, w),
		MaxRestarts: s.cfg.MaxRestarts,
		Ctx:         j.ctx,
	}
	return co.Run(), w
}

// stampIntegrity attaches the canonical answer signature (and, for
// verify-vote, the packed answer itself) to a non-aborted response of an
// integrity-tier request. Requests with integrity=none skip all of this —
// the hot path computes no signatures. The Byzantine lie fixture lives
// here: a lying node corrupts the copy it fingerprints, so the wire
// response is well-formed and internally consistent (signature matches the
// shipped answer) but wrong — exactly the adversary replica voting exists
// to out-vote.
func (s *Service) stampIntegrity(resp *Response, p Parsed, rep recovery.Report, w recovery.Workload) {
	if p.Integrity == IntegrityNone || rep.Outcome == recovery.Aborted {
		return
	}
	aw, ok := w.(recovery.Answerer)
	if !ok {
		// Structurally unreachable: every served kernel implements
		// Answerer. Deliver as aborted rather than as an unsigned answer.
		resp.Outcome = recovery.Aborted.String()
		resp.Error = fmt.Sprintf("serve: %s workload exposes no answer data for integrity %s", p.Kernel, p.Integrity)
		return
	}
	chunks := aw.AnswerData()
	if s.lies(p.Seed) {
		chunks = corruptAnswer(chunks, s.cfg.LieSeed)
		s.m.ByzantineLies.Add(1)
	}
	resp.Integrity = p.Integrity.String()
	resp.AnswerSig = abft.AnswerSig(chunks...)
	if p.Integrity == IntegrityVerifyVote {
		// Ship the claimed product so verifier nodes can replicate the
		// O(n²) check against these exact bytes (gemm-only by admission).
		resp.Answer = packChunks(chunks)
	}
}

// lies draws the Byzantine lottery for one request: a pure function of
// (LieSeed, request seed), so a lying node lies identically on replay and
// distinct requests draw independently.
func (s *Service) lies(seed uint64) bool {
	if s.cfg.LieFraction <= 0 {
		return false
	}
	draw := campaign.Splitmix64(s.cfg.LieSeed ^ seed ^ 0x9e3779b97f4a7c15)
	return float64(draw)/float64(^uint64(0)) < s.cfg.LieFraction
}

// corruptAnswer deep-copies the answer chunks and perturbs one element —
// a plausible, finite, well-formed wrong answer (not NaN garbage a client
// would spot without voting). The perturbation magnitude derives from the
// node's LieSeed, so independent liars tell different lies: two Byzantine
// nodes only outvote an honest one by actually colluding (same LieSeed),
// never by accident of the fixture.
func corruptAnswer(chunks [][]float64, lieSeed uint64) [][]float64 {
	out := make([][]float64, len(chunks))
	for i, c := range chunks {
		out[i] = append([]float64(nil), c...)
	}
	if len(out) > 0 && len(out[0]) > 0 {
		out[0][0] = -(out[0][0] + 1.5 + float64(campaign.Splitmix64(lieSeed)%4096))
	}
	return out
}

// packChunks serializes answer chunks as little-endian IEEE-754 bit
// patterns in chunk order — the same exact-bits encoding abft.PackBlock
// uses, so for an n×n answer the bytes equal PackBlock of the matrix.
func packChunks(chunks [][]float64) []byte {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]byte, 8*n)
	off := 0
	for _, c := range chunks {
		for _, v := range c {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
	}
	return out
}

// injectionPlan derives the request's fault schedule from its seed — the
// same splitmix stream discipline the soak harness uses, so a request
// replayed with the same seed injects the same faults at the same ticks.
func injectionPlan(p Parsed, w recovery.Workload) []recovery.Injection {
	if p.Faults <= 0 {
		return nil
	}
	targets := w.InjectTargets()
	steps := w.Steps()
	st := p.Seed
	next := func() uint64 { st++; return campaign.Splitmix64(st) }
	plan := make([]recovery.Injection, 0, p.Faults)
	for e := 0; e < p.Faults; e++ {
		ti := int(next() % uint64(len(targets)))
		plan = append(plan, recovery.Injection{
			Tick:   int(next() % uint64(steps)),
			Kind:   p.Kind,
			Target: ti,
			Elem:   int(next() % uint64(len(targets[ti].T.Data))),
		})
	}
	return plan
}
