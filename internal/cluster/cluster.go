// Package cluster is the node-level analogue of the paper's cooperative
// placement. A gateway fronts a pool of abftd workers; each node
// advertises the ECC strategies it can host — the cluster-scale version of
// per-page-frame ECC regions, where software declares which ranges may run
// relaxed — and placement routes every request to a compatible node via
// rendezvous hashing on (kernel, size-class), under a bounded per-node
// outstanding window. Robustness stays hidden behind the hot path the way
// §4 hides recovery behind ABFT: health probes and circuit breakers take
// sick nodes out of rotation, connection failures and 503s fail over to
// the next-ranked replica with jittered backoff, and a delivered
// classification is never re-executed — retries cannot manufacture a wrong
// answer, because only undelivered requests are ever retried and every
// delivered answer is oracle-gated by the node's ladder.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coopabft/internal/campaign"
	"coopabft/internal/cluster/vote"
	"coopabft/internal/core"
	"coopabft/internal/serve"
	"coopabft/internal/serve/qos"
)

// Typed gateway errors; the HTTP layer maps them to status codes, and
// serve's ErrBadRequest/ErrOverloaded are reused so in-process callers and
// the load generator tally gateway answers exactly like node answers.
var (
	// ErrNoNodes means no configured node advertises the requested ECC
	// strategy — a capability miss, not a transient failure.
	ErrNoNodes = errors.New("cluster: no node advertises the requested strategy")
	// ErrUnavailable means every placement attempt failed at the
	// connection/503 level and the retry budget is spent.
	ErrUnavailable = errors.New("cluster: no replica available")
	// ErrUnknownNode reports an admin operation against an ID the gateway
	// does not manage.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNoQuorum means an integrity-tier request could not assemble its
	// answer-signature majority at admission: fewer eligible distinct nodes
	// than replicas requested. (Vote-time quorum loss is delivered as a
	// typed aborted classification instead — see doVote.) Wraps the vote
	// package's sentinel so errors.Is works against either.
	ErrNoQuorum = fmt.Errorf("cluster: %w", vote.ErrNoQuorum)
)

// NodeConfig describes one backend worker.
type NodeConfig struct {
	// ID names the node in metrics, responses, and admin calls; defaults
	// to BaseURL without its scheme.
	ID string
	// BaseURL is the node's root, e.g. http://127.0.0.1:8321.
	BaseURL string
	// Strategies is the node's ECC-capability set: the strategies whose
	// requests it accepts. Empty means all six — a node whose memory
	// controller can program any per-range configuration.
	Strategies []core.Strategy
}

// Config sizes the gateway. The zero value (plus at least one node) is
// usable: defaults are applied by New.
type Config struct {
	Nodes []NodeConfig

	// Window bounds outstanding requests per node (default 8); a full
	// window spills the placement to the next-ranked replica.
	Window int
	// Retries is how many additional replicas a request may try after a
	// connection failure, 503, or shed (default 2).
	Retries int
	// RetryBackoff is the base jittered delay before a failover retry
	// (default 5ms; grows exponentially per attempt).
	RetryBackoff time.Duration

	// ProbeInterval is the health-probe period (default 250ms; < 0
	// disables probing, leaving nodes optimistically healthy).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration

	// BreakerFailures is the consecutive connection/503 failures that
	// open a node's breaker (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker parks a node before the
	// next trial (default 1s).
	BreakerCooldown time.Duration
	// AbortWindow and AbortTripFraction configure the elevated-Aborted
	// trip: once the last AbortWindow delivered outcomes are at least
	// AbortTripFraction aborted, the breaker opens (defaults 20, 0.9).
	AbortWindow       int
	AbortTripFraction float64

	// VoteReplicas is the default replica count R for integrity-tier
	// requests that do not specify one (default 3: tolerates one lying or
	// lost replica).
	VoteReplicas int
	// SuspectTrip is the cumulative minority-vote count that opens a
	// node's breaker (default 3). Suspect tallies do not reset on honest
	// deliveries — see breaker.onSuspect.
	SuspectTrip int
	// SuspectDecayEvery forgives one accumulated suspect per this many
	// consecutive honest deliveries (default 16; <0 disables decay), so a
	// rare honest minority loss cannot build into a quarantine over weeks
	// of clean traffic while a steady liar still trips.
	SuspectDecayEvery int

	// TenantRate/TenantBurst enable per-tenant token-bucket quotas at the
	// gateway door (requests/second and bucket depth; 0 disables). The
	// gateway checks the bucket before placement, so a flooding tenant is
	// rejected with a typed 429 and Retry-After instead of consuming node
	// windows.
	TenantRate  float64
	TenantBurst float64

	// ShardThreshold is the GEMM size at which a job submitted via the
	// jobs API splits into checksum-block tasks across the pool instead of
	// forwarding whole (default 256). Requires >= 3 eligible workers;
	// smaller pools pass through.
	ShardThreshold int
	// MaxJobN caps jobs-API problem sizes — and, as the gateway's shared
	// admission bound, the largest n the sync path will forward (default
	// 2048).
	MaxJobN int
	// MaxFaults caps per-request fault injection at gateway admission,
	// mirroring the node-side default (default 8).
	MaxFaults int
	// ShardBlock is the target block edge when choosing the grid: an n×n
	// job aims for ceil(n/ShardBlock) block rows/columns, clamped to
	// [2, min(8, workers-1)] (default 128).
	ShardBlock int
	// JobRetention is how long a terminal job stays pollable before
	// eviction (default 10m).
	JobRetention time.Duration
	// MaxJobs caps tracked job records; at capacity the oldest terminal
	// record is evicted, and if every record is live, submission sheds
	// (default 128).
	MaxJobs int

	// SelfURL is the gateway's own externally reachable base URL (e.g.
	// http://127.0.0.1:8330). Long-job workers stream checkpoints back to
	// SelfURL + /v1/jobs/{id}/checkpoint; empty disables checkpoint
	// streaming (long jobs still run, but a dead worker forces a cold
	// restart instead of a step-granular migration). The daemon may also
	// set it after binding its listener, via SetSelfURL.
	SelfURL string
	// CheckpointEvery is the step interval workers are asked to stream
	// checkpoints at for long jobs (default 8).
	CheckpointEvery int
	// MaxMigrations bounds how many times one long job may be rescheduled
	// onto a new node after worker deaths (default 3).
	MaxMigrations int
	// EventBuffer sizes the gateway's error-bus replay ring (default 256).
	EventBuffer int
	// DisableEventStream turns off the per-node /v1/events watchers; node
	// death is then discovered by probes and transport errors only.
	DisableEventStream bool

	// Seed feeds the deterministic retry jitter.
	Seed uint64
	// Client is the forwarding transport (default: a dedicated client
	// with sane timeouts).
	Client *http.Client
	// Metrics receives counters; nil allocates a private set.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.AbortWindow <= 0 {
		c.AbortWindow = 20
	}
	if c.AbortTripFraction <= 0 || c.AbortTripFraction > 1 {
		c.AbortTripFraction = 0.9
	}
	if c.VoteReplicas <= 0 {
		c.VoteReplicas = 3
	}
	if c.VoteReplicas > serve.MaxReplicas {
		c.VoteReplicas = serve.MaxReplicas
	}
	if c.SuspectTrip <= 0 {
		c.SuspectTrip = 3
	}
	if c.SuspectDecayEvery == 0 {
		c.SuspectDecayEvery = 16
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRate
	}
	if c.ShardThreshold <= 0 {
		c.ShardThreshold = 256
	}
	if c.MaxJobN <= 0 {
		c.MaxJobN = 2048
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 8
	}
	if c.ShardBlock <= 0 {
		c.ShardBlock = 128
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 10 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 128
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 3
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// node is one backend's runtime state.
type node struct {
	id   string
	base string
	caps map[core.Strategy]bool // nil = all strategies
	hash uint64

	window   chan struct{}
	br       *breaker
	healthy  atomic.Bool
	draining atomic.Bool
	m        *NodeMetrics
}

func (nd *node) supports(s core.Strategy) bool { return nd.caps == nil || nd.caps[s] }

func (nd *node) tryAcquire() bool {
	select {
	case nd.window <- struct{}{}:
		nd.m.Inflight.Add(1)
		return true
	default:
		return false
	}
}

func (nd *node) release() {
	<-nd.window
	nd.m.Inflight.Add(-1)
}

// acquire blocks until a window slot frees or ctx ends. The voting path
// uses this instead of tryAcquire: a vote needs R specific distinct
// nodes, so spilling to the next-ranked replica on a momentarily full
// window would silently shrink the electorate.
func (nd *node) acquire(ctx context.Context) error {
	select {
	case nd.window <- struct{}{}:
		nd.m.Inflight.Add(1)
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Gateway is the cluster front-end: capability-filtered rendezvous
// placement, bounded per-node windows, breakers, probes, failover.
type Gateway struct {
	cfg   Config
	m     *Metrics
	nodes []*node
	byID  map[string]*node
	quota *qos.Quota // nil when TenantRate is 0 (quotas off)

	quit      chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
	// healthHold is read-held while a background health signal (a probe
	// result or an event-stream death mark) is applied; holding it for
	// writing freezes both, which tests use to isolate request-path
	// failover.
	healthHold sync.RWMutex

	// Async jobs (the /v1/jobs surface).
	jobMu     sync.Mutex
	jobs      map[string]*jobRecord
	jobSeq    uint64
	jobCtx    context.Context
	jobCancel context.CancelFunc
	jobWG     sync.WaitGroup

	// Error bus and long-job plumbing. selfURL is atomic so the daemon can
	// set it after binding its listener; longClient has no overall timeout
	// (a long solve's lifetime is bounded by the job context, and event
	// streams stay open indefinitely).
	bus        *serve.Bus
	selfURL    atomic.Value // string
	longClient *http.Client
}

// New builds a gateway and starts its health prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	g := &Gateway{
		cfg:        cfg,
		m:          cfg.Metrics,
		byID:       make(map[string]*node, len(cfg.Nodes)),
		quit:       make(chan struct{}),
		jobs:       make(map[string]*jobRecord),
		bus:        serve.NewBus(cfg.EventBuffer),
		longClient: &http.Client{},
	}
	if cfg.TenantRate > 0 {
		g.quota = qos.NewQuota(qos.Config{Rate: cfg.TenantRate, Burst: cfg.TenantBurst})
	}
	g.selfURL.Store(strings.TrimRight(cfg.SelfURL, "/"))
	g.m.bus = g.bus
	g.jobCtx, g.jobCancel = context.WithCancel(context.Background())
	for _, nc := range cfg.Nodes {
		base := strings.TrimRight(nc.BaseURL, "/")
		if base == "" {
			return nil, errors.New("cluster: node with empty BaseURL")
		}
		id := nc.ID
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		}
		if _, dup := g.byID[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", id)
		}
		nd := &node{
			id:     id,
			base:   base,
			hash:   fnv64a(id),
			window: make(chan struct{}, cfg.Window),
			br: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown,
				cfg.AbortWindow, cfg.AbortTripFraction, cfg.SuspectTrip, cfg.SuspectDecayEvery),
			m: g.m.Node(id),
		}
		if len(nc.Strategies) > 0 {
			nd.caps = make(map[core.Strategy]bool, len(nc.Strategies))
			for _, s := range nc.Strategies {
				nd.caps[s] = true
			}
		}
		nd.healthy.Store(true) // optimistic until the first probe
		g.nodes = append(g.nodes, nd)
		g.byID[id] = nd
	}
	if cfg.ProbeInterval > 0 {
		for _, nd := range g.nodes {
			g.probeWG.Add(1)
			go g.probeLoop(nd)
		}
	}
	// Event watchers ride the same switch as the prober: ProbeInterval < 0
	// means "no background node traffic" (deterministic tests), and the
	// push-on-fault stream is a complement to probing, not a replacement.
	if cfg.ProbeInterval > 0 && !cfg.DisableEventStream {
		for _, nd := range g.nodes {
			g.probeWG.Add(1)
			go g.watchLoop(nd)
		}
	}
	return g, nil
}

// Metrics returns the gateway's counters.
func (g *Gateway) Metrics() *Metrics { return g.m }

// Bus returns the gateway's error bus: every node's fault events, relayed
// with Node stamped, plus the gateway's own node_death publications.
func (g *Gateway) Bus() *serve.Bus { return g.bus }

// SetSelfURL records the gateway's externally reachable base URL after
// the daemon binds its listener, enabling checkpoint streaming for long
// jobs submitted from then on.
func (g *Gateway) SetSelfURL(u string) { g.selfURL.Store(strings.TrimRight(u, "/")) }

// SelfURL returns the currently configured self URL ("" if unset).
func (g *Gateway) SelfURL() string { u, _ := g.selfURL.Load().(string); return u }

// Close stops the health prober and cancels running jobs, waiting for
// their coordinators to unwind. In-flight synchronous forwards are
// unaffected — the HTTP server draining above the gateway bounds them.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.quit)
		g.jobCancel()
	})
	g.probeWG.Wait()
	g.jobWG.Wait()
}

// forwardClass discriminates one placement attempt's result.
type forwardClass int

const (
	fcDelivered  forwardClass = iota // classified answer: final, never retried
	fcBadRequest                     // node-validated 400: final
	fcShed                           // 429: node alive but full — try elsewhere
	fcFailed                         // connection failure or 503 — breaker fault
)

// Do places one request on a compatible node and returns its classified
// answer, failing over across replicas on connection failures, 503s, and
// sheds. It implements the same Doer contract as serve.Service.Do, so the
// load generator drives a cluster exactly like a single daemon.
func (g *Gateway) Do(ctx context.Context, req serve.Request) (serve.Response, error) {
	g.m.Requests.Add(1)
	// One admission entrypoint for the whole stack: the gateway validates
	// with the same serve.ParseRequest the nodes use (against its own,
	// looser limits), so a 400 means the same thing at every layer and a
	// malformed request never ties up a placement.
	p, err := serve.ParseRequest(g.jobLimits(), req)
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, err
	}
	// Route construction refuses non-wire kernel values rather than ever
	// splicing the Kernel(%d) diagnostic fallback into a URL.
	wire, err := p.Kernel.Wire()
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, err
	}
	// Per-tenant quota at the cluster door: a flooding tenant is turned
	// away before it consumes node windows or placement work. The nodes'
	// own schedulers still apply their quotas/fair-queueing underneath.
	if g.quota != nil {
		if qerr := g.quota.Take(p.Tenant); qerr != nil {
			var qe *qos.QuotaError
			errors.As(qerr, &qe)
			g.m.Throttled.Add(1)
			return serve.Response{}, &serve.ThrottleError{Tenant: p.Tenant, RetryAfter: qe.RetryAfter}
		}
	}

	capable := make([]*node, 0, len(g.nodes))
	for _, nd := range g.nodes {
		if nd.supports(p.Strategy) {
			capable = append(capable, nd)
		}
	}
	if len(capable) == 0 {
		g.m.NoNodes.Add(1)
		return serve.Response{}, fmt.Errorf("%w: %s", ErrNoNodes, p.Strategy)
	}
	ranked := rank(capable, placementKey(p.Kernel, sizeClass(p.Size())))

	body, err := json.Marshal(req)
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, fmt.Errorf("%w: %w", serve.ErrBadRequest, err)
	}

	// Integrity-tier requests leave the single-placement path here: they
	// are elections over distinct nodes, not failover chains.
	if p.Integrity != serve.IntegrityNone {
		return g.doIntegrity(ctx, p, wire, body, ranked)
	}

	forwards := 0
	sawShed := false
	needBackoff := false
	var lastErr error
	for _, nd := range ranked {
		if forwards > g.cfg.Retries {
			break
		}
		if nd.draining.Load() || !nd.healthy.Load() {
			continue
		}
		if !nd.br.allow(time.Now()) {
			nd.m.BreakerSkips.Add(1)
			continue
		}
		if needBackoff {
			needBackoff = false
			if err := sleepCtx(ctx, g.backoff(req.Seed, forwards)); err != nil {
				return serve.Response{}, fmt.Errorf("%w: %w", ErrUnavailable, err)
			}
		}
		if !nd.tryAcquire() {
			nd.m.WindowSkips.Add(1)
			sawShed = true
			continue
		}
		if forwards > 0 {
			g.m.Retries.Add(1)
		}
		resp, class, err := g.forward(ctx, nd, wire, body)
		nd.release()
		forwards++
		switch class {
		case fcDelivered:
			if tripped := nd.br.onDelivered(time.Now(), resp.Outcome == "aborted"); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			nd.m.Delivered.Add(1)
			g.m.Delivered.Add(1)
			switch resp.Outcome {
			case "corrected":
				g.m.Corrected.Add(1)
			case "restarted":
				g.m.Restarted.Add(1)
			case "aborted":
				g.m.Aborted.Add(1)
			}
			resp.Node = nd.id
			resp.GatewayRetries = forwards - 1
			return resp, nil
		case fcBadRequest:
			g.m.BadRequests.Add(1)
			return serve.Response{}, err
		case fcShed:
			nd.m.Rejected429.Add(1)
			sawShed = true
			lastErr = err
		case fcFailed:
			if tripped := nd.br.onFailure(time.Now()); tripped {
				nd.m.BreakerTrips.Add(1)
			}
			lastErr = err
			needBackoff = true
			if ctx.Err() != nil {
				g.m.Unavailable.Add(1)
				return serve.Response{}, fmt.Errorf("%w: %w", ErrUnavailable, lastErr)
			}
		}
	}

	if sawShed {
		g.m.Overloaded.Add(1)
		if lastErr == nil {
			lastErr = errors.New("every eligible replica's window is full")
		}
		return serve.Response{}, fmt.Errorf("%w: %v", serve.ErrOverloaded, lastErr)
	}
	g.m.Unavailable.Add(1)
	if lastErr == nil {
		lastErr = errors.New("every eligible replica is parked (breaker open or unhealthy)")
	}
	return serve.Response{}, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, forwards, lastErr)
}

// forward sends one attempt to one node and classifies the transport
// result. Only fcDelivered carries a response.
func (g *Gateway) forward(ctx context.Context, nd *node, kernel string, body []byte) (serve.Response, forwardClass, error) {
	nd.m.Forwarded.Add(1)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		nd.base+"/v1/"+kernel, bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, fcFailed, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := g.cfg.Client.Do(hreq)
	if err != nil {
		nd.m.TransportErrors.Add(1)
		return serve.Response{}, fcFailed, fmt.Errorf("node %s: %w", nd.id, err)
	}
	defer hresp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
	if err != nil {
		nd.m.TransportErrors.Add(1)
		return serve.Response{}, fcFailed, fmt.Errorf("node %s: %w", nd.id, err)
	}

	switch hresp.StatusCode {
	case http.StatusOK:
		var resp serve.Response
		if err := json.Unmarshal(payload, &resp); err != nil {
			nd.m.TransportErrors.Add(1)
			return serve.Response{}, fcFailed, fmt.Errorf("node %s: bad response body: %w", nd.id, err)
		}
		return resp, fcDelivered, nil
	case http.StatusBadRequest:
		return serve.Response{}, fcBadRequest, fmt.Errorf("%w: node %s: %s", serve.ErrBadRequest, nd.id, wireError(payload))
	case http.StatusTooManyRequests:
		return serve.Response{}, fcShed, fmt.Errorf("node %s: %s", nd.id, wireError(payload))
	default: // 503 and anything else unexpected is a node fault
		nd.m.Failed503.Add(1)
		return serve.Response{}, fcFailed, fmt.Errorf("node %s: HTTP %d: %s", nd.id, hresp.StatusCode, wireError(payload))
	}
}

// backoff derives the jittered failover delay from the request seed and
// attempt index — exponential growth, deterministic per (gateway seed,
// request seed, attempt) so a replayed sweep behaves identically.
func (g *Gateway) backoff(seed uint64, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	if shift < 0 {
		shift = 0
	}
	d := g.cfg.RetryBackoff << shift
	j := campaign.Splitmix64(g.cfg.Seed ^ seed ^ (uint64(attempt)+1)*0x9E3779B97F4A7C15)
	frac := 0.5 + float64(j%1024)/1024.0 // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// Drain takes a node out of placement without touching its in-flight
// requests: running work finishes, new work goes elsewhere.
func (g *Gateway) Drain(id string) error {
	nd, ok := g.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.draining.Store(true)
	return nil
}

// Rejoin returns a drained node to placement.
func (g *Gateway) Rejoin(id string) error {
	nd, ok := g.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.draining.Store(false)
	return nil
}

// NodeStatus is one node's live state, as reported by /healthz.
type NodeStatus struct {
	ID         string `json:"id"`
	Healthy    bool   `json:"healthy"`
	Draining   bool   `json:"draining"`
	Breaker    string `json:"breaker"`
	Inflight   int64  `json:"inflight"`
	QueueDepth int64  `json:"queue_depth"` // node-reported, from the last probe
	// Suspects counts vote elections this node lost (its well-formed
	// answer was outvoted by the replica majority).
	Suspects int64 `json:"suspects"`
}

// Status snapshots every node in configuration order.
func (g *Gateway) Status() []NodeStatus {
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, nd := range g.nodes {
		state, _ := nd.br.snapshot()
		out = append(out, NodeStatus{
			ID:         nd.id,
			Healthy:    nd.healthy.Load(),
			Draining:   nd.draining.Load(),
			Breaker:    state.String(),
			Inflight:   nd.m.Inflight.Value(),
			QueueDepth: nd.m.QueueDepth.Value(),
			Suspects:   nd.m.Suspects.Value(),
		})
	}
	return out
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// wireError extracts a node's error envelope for diagnostics.
func wireError(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(payload))
}
