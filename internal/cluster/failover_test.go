package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"coopabft/internal/core"
	"coopabft/internal/serve"
	"coopabft/internal/serve/loadgen"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdHealth freezes the gateway's background health signals (probe
// results and event-stream death marks) until the returned release runs;
// release also runs at cleanup, ahead of the gateway's Close.
func holdHealth(t *testing.T, g *Gateway) (release func()) {
	g.healthHold.Lock()
	var once sync.Once
	release = func() { once.Do(g.healthHold.Unlock) }
	t.Cleanup(release)
	return release
}

// TestThreeNodeFailoverAndRejoin is the in-process version of the CI
// chaos smoke: kill the node that owns a key mid-stream, require every
// subsequent request to still classify (zero wrong answers), probe it
// unhealthy, restart it on the same address, and require placement to
// return to it. Background health signals are held during the outage, so
// the first requests must discover the dead node on the request path and
// fail over live; one explicit probe step then marks it down.
func TestThreeNodeFailoverAndRejoin(t *testing.T) {
	nodes := make([]*restartableNode, 3)
	cfgs := make([]NodeConfig, 3)
	for i := range nodes {
		nodes[i] = startRestartable(t, "")
		cfgs[i] = NodeConfig{ID: fmt.Sprintf("n%d", i), BaseURL: nodes[i].url()}
	}
	g, err := New(Config{
		Nodes:           cfgs,
		Window:          8,
		Retries:         3,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	do := func(seed uint64) serve.Response {
		t.Helper()
		resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: seed, Faults: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if resp.Outcome != "corrected" && resp.Outcome != "restarted" && resp.Outcome != "aborted" {
			t.Fatalf("seed %d: wrong answer: outcome %q", seed, resp.Outcome)
		}
		return resp
	}

	owner := do(1).Node
	var victim *restartableNode
	for i, c := range cfgs {
		if c.ID == owner {
			victim = nodes[i]
		}
	}
	release := holdHealth(t, g)
	victim.kill() // SIGKILL analogue: connections refused, no drain

	// Every request during the outage must still classify; the first few
	// fail over live (connection refused → runner-up).
	failedOver := 0
	for seed := uint64(2); seed <= 20; seed++ {
		resp := do(seed)
		if resp.Node == owner {
			t.Fatalf("seed %d answered by killed node %s", seed, owner)
		}
		if resp.GatewayRetries > 0 {
			failedOver++
		}
	}
	if failedOver == 0 {
		t.Error("no request recorded a live failover from the killed node")
	}
	statusOf := func(id string) NodeStatus {
		for _, st := range g.Status() {
			if st.ID == id {
				return st
			}
		}
		t.Fatalf("node %s missing from status", id)
		return NodeStatus{}
	}
	g.probe(g.byID[owner])
	if statusOf(owner).Healthy {
		t.Errorf("probe left killed node %s healthy", owner)
	}
	if g.m.Node(owner).TransportErrors.Value() == 0 {
		t.Error("killed node recorded no transport errors")
	}
	release()

	victim.start() // restart on the same address
	waitFor(t, "probe to mark "+owner+" healthy again", func() bool {
		st := statusOf(owner)
		return st.Healthy && st.Breaker == "closed"
	})
	// Placement returns to the owner: same key, fresh seeds.
	waitFor(t, "placement to return to "+owner, func() bool {
		return do(1000+uint64(time.Now().UnixNano()%1000)).Node == owner
	})
}

// TestSingleNodeClusterMatchesDirect: the acceptance gate — the same
// fixed-count seeded sweep against (a) an in-process Service and (b) a
// gateway fronting one identically-configured node yields bit-for-bit
// identical outcome tables. The gateway adds routing, never semantics.
func TestSingleNodeClusterMatchesDirect(t *testing.T) {
	sweep := loadgen.Config{
		Seed:          41,
		Requests:      10, // fixed-count: the sweep is a pure function of Seed
		Rates:         []float64{400},
		Kernels:       []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky},
		Strategies:    []core.Strategy{core.WholeChipkill, core.PartialChipkillSECDED},
		N:             32,
		FaultFraction: 0.6,
		Timeout:       30 * time.Second,
	}
	svcCfg := serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second}

	direct := serve.New(svcCfg)
	defer direct.Close()
	want, err := loadgen.Run(context.Background(), direct, sweep)
	if err != nil {
		t.Fatal(err)
	}

	g := testGateway(t, NodeConfig{ID: "solo", BaseURL: serveNode(t)})
	got, err := loadgen.Run(context.Background(), g, sweep)
	if err != nil {
		t.Fatal(err)
	}

	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count %d vs %d", len(want.Cells), len(got.Cells))
	}
	for i := range want.Cells {
		w, c := want.Cells[i], got.Cells[i]
		type table struct {
			Sent, Completed, Corrected, Restarted, Aborted    int
			Overloaded, QueueTimeout, Errors, Unclassified    int
			InjectedReqs, FaultsLanded, Corrections, Restarts int
		}
		wt := table{w.Sent, w.Completed, w.Corrected, w.Restarted, w.Aborted,
			w.Overloaded, w.QueueTimeout, w.Errors, w.Unclassified,
			w.InjectedReqs, w.FaultsLanded, w.Corrections, w.Restarts}
		ct := table{c.Sent, c.Completed, c.Corrected, c.Restarted, c.Aborted,
			c.Overloaded, c.QueueTimeout, c.Errors, c.Unclassified,
			c.InjectedReqs, c.FaultsLanded, c.Corrections, c.Restarts}
		if wt != ct {
			t.Errorf("cell %v/%v: direct %+v vs cluster %+v",
				w.Kernel, w.Strategy, wt, ct)
		}
		if c.Retried != 0 {
			t.Errorf("cell %v/%v: single-node cluster retried %d delivered answers",
				c.Kernel, c.Strategy, c.Retried)
		}
	}
}
