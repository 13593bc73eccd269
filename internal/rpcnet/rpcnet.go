// Package rpcnet models the client/server network path of the
// evaluation cluster (Table 2): clients with one 10 GbE NIC each, a
// storage server with two bonded 10 GbE NICs, and batched synchronous
// KV requests — one request carries `batch` sub-requests, the server
// executes the sub-requests concurrently, and the response streams
// back over both the server's and the client's NIC (§3.1, §3.3).
package rpcnet

import (
	"errors"
	"math/rand"
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// ErrDeadlineExceeded is returned by DoBudget when retries exhaust the
// request's deadline budget.
var ErrDeadlineExceeded = errors.New("rpcnet: deadline budget exhausted")

// The testbed's links and server (Table 2).
const (
	// serverBandwidth is the server's aggregate NIC rate in bytes/s
	// (two 10 GbE ports ~ 2.5 GB/s).
	serverBandwidth = 2.5e9
	// clientBandwidth is one client NIC (10 GbE ~ 1.25 GB/s).
	clientBandwidth = 1.25e9
	// serverCPUs bounds concurrent sub-request processing.
	serverCPUs = 16
)

// Config sets the per-operation software costs and loss recovery.
type Config struct {
	// RPCOverhead is the fixed per-request cost (syscalls, framing,
	// switch latency).
	RPCOverhead time.Duration
	// SubRequestCPU is the server-side cost per sub-request (request
	// parsing, KV dispatch, memory copies).
	SubRequestCPU time.Duration
	// RequestTimeout is how long a client waits for a response before
	// declaring the request lost.
	RequestTimeout time.Duration
	// RetryBackoff is the wait before the first retry; it doubles per
	// attempt.
	RetryBackoff time.Duration
	// Seed feeds the network's private RNG stream (loss draws).
	Seed int64
}

// DefaultConfig matches the paper's testbed.
func DefaultConfig() Config {
	return Config{
		RPCOverhead:    100 * time.Microsecond,
		SubRequestCPU:  150 * time.Microsecond,
		RequestTimeout: 10 * time.Millisecond,
		RetryBackoff:   2 * time.Millisecond,
	}
}

// Network is one storage server reachable by many clients.
type Network struct {
	env      *sim.Env
	cfg      Config
	server   *sim.SharedLink
	cpu      *sim.Timeline // the server's CPUs: a pure timed hold per sub-request
	rng      *rand.Rand
	lossRate float64 // wire drop probability; see InjectLoss

	free []*call // call records between uses

	calls     metrics.Counter
	inflight  int // Calls between entry and return
	drops     int64
	retries   int64
	deadlines int64
}

// NewNetwork builds the server side on env.
func NewNetwork(env *sim.Env, cfg Config) *Network {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Millisecond
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	return &Network{
		env:    env,
		cfg:    cfg,
		server: sim.NewSharedLink(env, serverBandwidth),
		cpu:    sim.NewTimeline(env, serverCPUs),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// InjectLoss sets the probability that a request is dropped on the
// wire (clamped to [0, 1]); fault plans flip it on for a window and
// back to 0 to end it. A dropped request burns RPCOverhead, the request
// transfer, and RequestTimeout at the client before DoBudget retries
// it. At 0, the initial rate, no RNG draws happen.
func (n *Network) InjectLoss(rate float64) { n.lossRate = clampRate(rate) }

// LossRate returns the current wire loss probability.
func (n *Network) LossRate() float64 { return n.lossRate }

// Stats returns (requests dropped, retries performed, deadline
// budgets exhausted).
func (n *Network) Stats() (drops, retries, deadlines int64) {
	return n.drops, n.retries, n.deadlines
}

// RegisterMetrics adopts the server's request counter into r and
// exports its loss-recovery counters plus an in-flight RPC gauge (the
// Calls currently between entry and return across all clients).
func (n *Network) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("rpc_calls_total", &n.calls, labels...)
	r.CounterFunc("rpc_drops_total", func() int64 { return n.drops }, labels...)
	r.CounterFunc("rpc_retries_total", func() int64 { return n.retries }, labels...)
	r.CounterFunc("rpc_deadline_exceeded_total", func() int64 { return n.deadlines }, labels...)
	r.GaugeFunc("rpc_inflight", func() float64 { return float64(n.inflight) }, labels...)
}

// dropRequest draws the loss lottery for one attempt. It performs no
// RNG draw at rate 0, keeping loss-free traces bit-identical.
func (n *Network) dropRequest() bool {
	if n.lossRate <= 0 {
		return false
	}
	return n.rng.Float64() < n.lossRate
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Client is one closed-loop requester with a dedicated NIC.
type Client struct {
	net *Network
	nic *sim.SharedLink
}

// NewClient attaches a client to the network.
func (n *Network) NewClient() *Client {
	return &Client{net: n, nic: sim.NewSharedLink(n.env, clientBandwidth)}
}

// SubRequest is one operation within a batched request: the server
// executes Do, which returns the number of response payload bytes.
type SubRequest func(p *sim.Proc) int

// call is one Call in flight: the response count its sub-requests add
// to, and a record per sub-request. The records embed their process and
// carry its body as a method value bound when the slice is built, so a
// Call served from the free list allocates nothing (DESIGN.md §15).
type call struct {
	client    *Client
	respBytes int
	subs      []subCall
}

// subCall is one sub-request and the rpcnet/sub process that executes
// it.
type subCall struct {
	call *call
	do   SubRequest
	sub  sim.Proc
	run  func(*sim.Proc)
}

// getCall returns a record with batch sub-request slots.
func (n *Network) getCall(c *Client, batch int) *call {
	var k *call
	if i := len(n.free); i > 0 {
		k = n.free[i-1]
		n.free = n.free[:i-1]
	} else {
		k = new(call)
	}
	k.client, k.respBytes = c, 0
	if cap(k.subs) < batch {
		k.subs = make([]subCall, batch)
		for i := range k.subs {
			s := &k.subs[i]
			s.call, s.run = k, s.execute
		}
	}
	k.subs = k.subs[:batch]
	return k
}

// execute is the rpcnet/sub process: the per-op CPU cost, the
// sub-request's own work, then the response, which crosses the server
// NIC pool and the client NIC at once — the server leg is started, the
// client leg carried, and the server leg awaited.
func (s *subCall) execute(wp *sim.Proc) {
	c := s.call.client
	n := c.net
	n.cpu.Occupy(wp, n.cfg.SubRequestCPU)
	size := s.do(wp)
	s.call.respBytes += size
	if size > 0 {
		srv := n.server.Start(size)
		c.nic.Transfer(wp, size)
		n.server.Await(wp, srv)
	}
}

// Call performs one synchronous batched request: reqBytes travel to
// the server, the batch executes concurrently (each sub-request pays
// the per-op CPU cost and then its own storage work), and each
// sub-response streams back as soon as it is ready — the server sends
// completed sub-requests while others are still in service (§3.3.1).
// The response traverses the server NIC pool and the client NIC
// concurrently (cut-through at the switch), so the slower link
// dominates. Call returns the total response bytes.
func (c *Client) Call(p *sim.Proc, reqBytes int, batch []SubRequest) int {
	n := c.net
	n.calls.Inc()
	n.inflight++
	defer func() { n.inflight-- }()
	p.Wait(n.cfg.RPCOverhead)
	if reqBytes > 0 {
		c.nic.Transfer(p, reqBytes)
	}
	k := n.getCall(c, len(batch))
	for i, sub := range batch {
		s := &k.subs[i]
		s.do = sub
		n.env.Start(&s.sub, "rpcnet/sub", s.run)
	}
	for i := range k.subs {
		p.Join(&k.subs[i].sub)
		k.subs[i].do = nil
	}
	respBytes := k.respBytes
	n.free = append(n.free, k)
	return respBytes
}

// DoBudget performs one logical request with loss recovery: each
// attempt that the wire drops burns RPCOverhead, the request transfer,
// and RequestTimeout, then retries with exponential backoff while the
// deadline budget lasts. With no loss it is exactly one Call. Every
// retry decrements the one budget, so deadline-aware callers (cluster
// read routing) carry a read's virtual-time deadline through the loop;
// a budget of 0 retries without bound. It returns the total response
// bytes.
func (c *Client) DoBudget(p *sim.Proc, reqBytes int, batch []SubRequest, budget time.Duration) (int, error) {
	n := c.net
	var deadline time.Duration
	if budget > 0 {
		deadline = n.env.Now() + budget
	}
	backoff := n.cfg.RetryBackoff
	for {
		if !n.dropRequest() {
			return c.Call(p, reqBytes, batch), nil
		}
		// The request vanished on the wire: the client pays for the
		// send and waits for a response that never comes. The timeout
		// is capped at the request's remaining deadline budget — a
		// retry must never re-arm a fresh RequestTimeout that would
		// carry the total past the original deadline.
		n.drops++
		t := n.env.Tracer()
		span := t.Begin(n.env.Now(), p.Span(), "rpc/loss", trace.PhaseFault)
		p.Wait(n.cfg.RPCOverhead)
		if reqBytes > 0 {
			c.nic.Transfer(p, reqBytes)
		}
		timeout := n.cfg.RequestTimeout
		if deadline > 0 && timeout > deadline-n.env.Now() {
			timeout = deadline - n.env.Now()
		}
		if timeout > 0 {
			p.Wait(timeout)
		}
		t.End(n.env.Now(), span)
		if deadline > 0 && n.env.Now()+backoff >= deadline {
			n.deadlines++
			return 0, ErrDeadlineExceeded
		}
		n.retries++
		p.Wait(backoff)
		backoff *= 2
	}
}

// ServerLink exposes the server NIC pool for instrumentation.
func (n *Network) ServerLink() *sim.SharedLink { return n.server }
