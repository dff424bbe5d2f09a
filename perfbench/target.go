package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"coopabft/internal/cluster"
	"coopabft/internal/serve"
)

// daemonConfig is the abftd default configuration: two executing batches,
// one mat worker per kernel, a 2 ms batch window.
func daemonConfig() serve.Config {
	return serve.Config{MaxConcurrency: 2, Parallelism: 1, BatchWindow: 2 * time.Millisecond}
}

// listener serves a handler on a loopback port in this process.
type listener struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, url: "http://" + ln.Addr().String()}
	go func() { _ = l.srv.Serve(ln) }() // returns http.ErrServerClosed on shutdown
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // long-lived event streams: drop them
	}
}

// daemon is one in-process abftd: the service behind its HTTP handler.
type daemon struct {
	svc *serve.Service
	l   *listener
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	svc := serve.New(cfg)
	l, err := listen(serve.NewHandler(svc))
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &daemon{svc: svc, l: l}, nil
}

func (d *daemon) close() {
	d.l.close()
	d.svc.Close()
}

// clusterSUT is a gateway over in-process workers.
type clusterSUT struct {
	workers []*daemon
	gw      *cluster.Gateway
	l       *listener
}

func startCluster(nodes int) (*clusterSUT, error) {
	c := &clusterSUT{}
	var ncs []cluster.NodeConfig
	for i := 0; i < nodes; i++ {
		d, err := startDaemon(daemonConfig())
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, d)
		ncs = append(ncs, cluster.NodeConfig{BaseURL: d.l.url})
	}
	gw, err := cluster.New(cluster.Config{Nodes: ncs, Seed: 1})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	if c.l, err = listen(cluster.NewHandler(gw)); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *clusterSUT) close() {
	if c.gw != nil {
		c.gw.Close()
	}
	if c.l != nil {
		c.l.close()
	}
	for _, d := range c.workers {
		d.close()
	}
}

// client is the benchmark's HTTP client. Its transport holds at most conns
// connections per host, so the load never opens more connections than the
// host has processors.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one JSON request and decodes a 2xx body into out. It returns the
// status code (0 on a transport error).
func (c *client) do(ctx context.Context, method, url string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// errTaxonomy marks a response whose outcome is outside
// corrected/restarted/aborted: a wrong answer, not a failure.
var errTaxonomy = errors.New("outcome outside corrected/restarted/aborted")

// call posts one compute request to base/v1/<kernel> and classifies the
// reply. A reply outside the outcome taxonomy is reported through wrong.
func (c *client) call(ctx context.Context, base, class string, req serve.Request, wrong func(error)) outcome {
	var resp serve.Response
	code, err := c.do(ctx, http.MethodPost, base+"/v1/"+req.Kernel, req, &resp)
	o := outcome{class: class, resp: resp}
	switch {
	case code == 0:
		o.fail = "transport"
	case code == http.StatusTooManyRequests:
		o.fail = "rejected"
	case code == http.StatusServiceUnavailable:
		o.fail = "unavailable"
	case err != nil:
		o.fail = fmt.Sprintf("http-%d", code)
		fmt.Fprintf(os.Stderr, "unexpected reply: %v\n", err)
	default:
		switch resp.Outcome {
		case "corrected", "restarted":
			o.ok = true
		case "aborted":
			o.fail = "aborted"
		default:
			o.fail = "taxonomy"
			wrong(fmt.Errorf("%w: %s %+v -> %q", errTaxonomy, class, req, resp.Outcome))
		}
	}
	return o
}

// timedSetup starts a system reps times and returns the median time until
// start reported it ready, keeping the last instance running.
func timedSetup[T any](reps int, start func() (T, error), stop func(T)) (T, float64, error) {
	var last T
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := start()
		if err != nil {
			return last, 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
		if i < reps-1 {
			stop(v)
		}
		last = v
	}
	return last, median(xs), nil
}

// setupReps is how many times a run starts its system to time set-up.
const setupReps = 15
