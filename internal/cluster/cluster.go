// Package cluster implements the system-level data replication that
// lets SDF drop cross-channel parity (§2.2): "in our large-scale
// Internet service infrastructure, data reliability is provided by
// data replication across multiple racks ... SDF excludes the
// parity-based data protection and relies on BCH ECC and
// software-managed data replication."
//
// A replica Group spans several storage nodes (each a CCDB slice on
// its own device). Writes go to every replica; reads are served by
// the primary, and when a node reports an uncorrectable BCH error —
// the rare event the paper saw once across 2000+ cards in six months
// — the group transparently recovers the value from another replica
// and repairs the failed node.
//
// Degraded-mode operation (DESIGN.md §9): replica writes are bounded
// by a virtual-time deadline, slow reads are hedged at the next
// replica after HedgeAfter, crashed nodes are skipped and their missed
// writes tracked per key, and a restarted node is re-replicated from
// its healthy peers in the background. A node built over a
// ccdb.SDFReplica (NewSDFNode) can also lose power: its restart first
// remounts the replica's media and replays its journal.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdf/internal/ccdb"
	"sdf/internal/coord"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Group errors.
var (
	// ErrAllReplicasFailed is returned when no replica can serve a read.
	ErrAllReplicasFailed = errors.New("cluster: all replicas failed")
	// ErrNodeDown reports an operation skipped because the node is
	// crashed.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrReplicaTimeout reports a replica write that missed the
	// group's deadline.
	ErrReplicaTimeout = errors.New("cluster: replica deadline exceeded")
	// ErrWriteShed reports a write rejected by SLO admission control:
	// the error-budget burn priced its delay above the admission cap.
	ErrWriteShed = errors.New("cluster: write shed by admission control")
)

// Node is one storage server holding a replica: a CCDB slice plus the
// NIC that replication traffic crosses. A node built by NewSDFNode also
// holds the slice's whole SDF stack, so a power cut can tear its media
// and a restart can remount it.
type Node struct {
	Name  string
	Slice *ccdb.Slice
	// replica is the SDF stack under Slice, nil for a node without
	// one (NewNode): such a node's power cut is a clean crash.
	replica *ccdb.SDFReplica
	nic     *sim.SharedLink
	alive   bool
	// dirty tracks keys this node missed (a put that failed or
	// timed out here, or arrived while the node was down). Read-repair
	// and restart-time re-replication reconcile them.
	dirty map[string]bool
	// lostPower distinguishes a power cut from a clean crash: the
	// node's device holds persistent media state and must be
	// remounted before it can serve again.
	lostPower bool
	// catchingUp marks a node that rejoined the group but whose
	// restart-time re-replication is still in flight: it can serve,
	// but the group routes reads to settled replicas first.
	catchingUp bool
	// window is the node's erase-window membership in the slice's
	// coordinator (DESIGN.md §16), nil when co-scheduling is off. The
	// group consults it in readOrder (a replica inside a granted window
	// is paying erase latency — route around it) and keeps its liveness
	// in sync so a dead replica never holds or queues for a window.
	window *coord.Member
}

// NewNode wraps a slice as a replica node with a 10 GbE NIC.
func NewNode(env *sim.Env, name string, slice *ccdb.Slice) *Node {
	return &Node{
		Name:  name,
		Slice: slice,
		nic:   sim.NewSharedLink(env, 1.25e9),
		alive: true,
		dirty: make(map[string]bool),
	}
}

// NewSDFNode makes a node of an SDF replica: NewNode over its slice,
// with power cuts and remounts going to the replica's own stack.
func NewSDFNode(env *sim.Env, name string, r *ccdb.SDFReplica) *Node {
	n := NewNode(env, name, r.Slice)
	n.replica = r
	return n
}

// Replica returns the node's SDF stack, or nil for a node built by
// NewNode. After a remount it holds the remounted device.
func (n *Node) Replica() *ccdb.SDFReplica { return n.replica }

// NIC returns the node's network link, so fault plans can degrade it.
func (n *Node) NIC() *sim.SharedLink { return n.nic }

// SetWindow wires the node's erase-window coordinator membership; the
// same Member should gate the node's block layer (Config.EraseGate).
func (n *Node) SetWindow(m *coord.Member) { n.window = m }

// inWindow reports whether the replica is currently inside a granted
// (or forced) erase window.
func (n *Node) inWindow() bool { return n.window != nil && n.window.InWindow() }

// Alive reports whether the node is serving requests.
func (n *Node) Alive() bool { return n.alive }

// replicaDeadline bounds how long a Put waits for each replica
// acknowledgment (virtual time, measured from the start of the Put). A
// replica that misses it counts as failed and is marked dirty for
// repair.
const replicaDeadline = 500 * time.Millisecond

// Config tunes a replica group.
type Config struct {
	// HedgeAfter launches the read at the next replica when the
	// current one has not answered within this much virtual time,
	// instead of waiting for it to fail. 0 disables hedging.
	HedgeAfter time.Duration
	// ReadDeadline is each Get's virtual-time deadline, measured from
	// its start. It does not abort the read; it caps every hedge timer
	// at the original deadline, so retries and hedges decrement one
	// shared budget instead of re-arming HedgeAfter per replica — once
	// the deadline passes, the group fans out to every remaining
	// replica immediately. 0 disables the deadline.
	ReadDeadline time.Duration
	// Admission, when non-nil, gates every Put through SLO admission
	// control (DESIGN.md §16): the token bucket throttles to the read
	// SLO's error-budget burn, delaying or shedding writes. When a
	// majority of replicas is down the gate is bypassed — the group
	// degrades to best-effort admission rather than shedding writes a
	// mostly-dead group needs for durability.
	Admission *coord.Admission
}

// DefaultConfig enables 20 ms read hedging.
func DefaultConfig() Config {
	return Config{HedgeAfter: 20 * time.Millisecond}
}

// Stats are the group's cumulative counters, read out of the same
// metrics.Counter storage the registry exports (they cannot drift).
type Stats struct {
	// Puts counts fully acknowledged writes; Gets counts reads.
	Puts, Gets int64
	// Failovers counts reads served by a non-primary replica.
	Failovers int64
	// Repairs counts successful read-repair writebacks.
	Repairs int64
	// Lost counts reads no replica could serve.
	Lost int64
	// DivergentPuts counts writes that failed or timed out on some
	// replicas but landed on others: the caller saw an error, yet
	// surviving replicas hold the value until repair reconciles it.
	DivergentPuts int64
	// Hedges counts hedged reads launched after HedgeAfter elapsed.
	Hedges int64
	// Rereplications counts keys copied back to a restarted node.
	Rereplications int64
	// Remounts counts nodes brought back through device recovery
	// after a power loss; FailedRemounts counts recovery attempts
	// that errored, leaving the node down.
	Remounts       int64
	FailedRemounts int64
	// DeprioritizedReads counts reads routed around a replica that was
	// mid-catch-up (remounted or restarted, re-replication in flight).
	DeprioritizedReads int64
	// WindowDeprioritizedReads counts reads routed around a replica
	// inside a granted erase window.
	WindowDeprioritizedReads int64
	// DelayedWrites and ShedWrites count admission-control outcomes;
	// BestEffortWrites counts puts that bypassed admission because a
	// majority of replicas was down.
	DelayedWrites, ShedWrites, BestEffortWrites int64
}

// groupCounters is the group's real counter storage. RegisterMetrics
// adopts each field into a registry, so the exported series and the
// Stats() snapshot are one set of numbers.
type groupCounters struct {
	puts, gets, failovers, repairs, lost  metrics.Counter
	divergentPuts, hedges, rereplications metrics.Counter
	remounts, failedRemounts              metrics.Counter
	deprioritized, windowDeprioritized    metrics.Counter
	delayedWrites, shedWrites             metrics.Counter
	bestEffortWrites                      metrics.Counter
}

// Group is a replicated keyspace across nodes; nodes[0] is the
// preferred (primary) read target.
type Group struct {
	env   *sim.Env
	cfg   Config
	nodes []*Node
	ctr   groupCounters
	// readLat is non-nil only when RegisterMetrics installed it;
	// Histogram.Observe is nil-safe, so Get observes unconditionally.
	readLat *metrics.Histogram
}

// NewGroup builds a group over the given nodes.
func NewGroup(env *sim.Env, cfg Config, nodes ...*Node) (*Group, error) {
	if len(nodes) < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	return &Group{env: env, cfg: cfg, nodes: nodes}, nil
}

// Replicas returns the replication factor.
func (g *Group) Replicas() int { return len(g.nodes) }

// Nodes returns the replica nodes in placement order.
func (g *Group) Nodes() []*Node { return g.nodes }

// Stats returns the group's cumulative counters.
func (g *Group) Stats() Stats {
	return Stats{
		Puts:                     g.ctr.puts.Value(),
		Gets:                     g.ctr.gets.Value(),
		Failovers:                g.ctr.failovers.Value(),
		Repairs:                  g.ctr.repairs.Value(),
		Lost:                     g.ctr.lost.Value(),
		DivergentPuts:            g.ctr.divergentPuts.Value(),
		Hedges:                   g.ctr.hedges.Value(),
		Rereplications:           g.ctr.rereplications.Value(),
		Remounts:                 g.ctr.remounts.Value(),
		FailedRemounts:           g.ctr.failedRemounts.Value(),
		DeprioritizedReads:       g.ctr.deprioritized.Value(),
		WindowDeprioritizedReads: g.ctr.windowDeprioritized.Value(),
		DelayedWrites:            g.ctr.delayedWrites.Value(),
		ShedWrites:               g.ctr.shedWrites.Value(),
		BestEffortWrites:         g.ctr.bestEffortWrites.Value(),
	}
}

// RegisterMetrics adopts the group's counters into r, installs a
// cluster_read_latency histogram observed by every successful Get,
// and a cluster_dirty_keys gauge (total keys awaiting repair across
// replicas — the group's replication lag). The gauge callback reads
// in-memory maps only and must stay park-free, per the GaugeFunc
// contract.
func (g *Group) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("cluster_puts_total", &g.ctr.puts, labels...)
	r.RegisterCounter("cluster_gets_total", &g.ctr.gets, labels...)
	r.RegisterCounter("cluster_failovers_total", &g.ctr.failovers, labels...)
	r.RegisterCounter("cluster_repairs_total", &g.ctr.repairs, labels...)
	r.RegisterCounter("cluster_lost_reads_total", &g.ctr.lost, labels...)
	r.RegisterCounter("cluster_divergent_puts_total", &g.ctr.divergentPuts, labels...)
	r.RegisterCounter("cluster_hedges_total", &g.ctr.hedges, labels...)
	r.RegisterCounter("cluster_rereplications_total", &g.ctr.rereplications, labels...)
	r.RegisterCounter("cluster_remounts_total", &g.ctr.remounts, labels...)
	r.RegisterCounter("cluster_failed_remounts_total", &g.ctr.failedRemounts, labels...)
	r.RegisterCounter("cluster_deprioritized_reads_total", &g.ctr.deprioritized, labels...)
	r.RegisterCounter("cluster_window_deprioritized_reads_total", &g.ctr.windowDeprioritized, labels...)
	r.RegisterCounter("cluster_admission_delayed_writes_total", &g.ctr.delayedWrites, labels...)
	r.RegisterCounter("cluster_admission_shed_writes_total", &g.ctr.shedWrites, labels...)
	r.RegisterCounter("cluster_admission_best_effort_writes_total", &g.ctr.bestEffortWrites, labels...)
	g.readLat = r.Histogram("cluster_read_latency_seconds", labels...)
	r.GaugeFunc("cluster_dirty_keys", func() float64 {
		var n int
		for _, node := range g.nodes {
			n += len(node.dirty)
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("cluster_live_nodes", func() float64 {
		var n int
		for _, node := range g.nodes {
			if node.alive {
				n++
			}
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("cluster_catching_up_nodes", func() float64 {
		var n int
		for _, node := range g.nodes {
			if node.alive && node.catchingUp {
				n++
			}
		}
		return float64(n)
	}, labels...)
}

// CrashNode takes the named node out of service: subsequent puts skip
// it (marking missed keys dirty) and reads fail over past it. It
// reports whether the node was found alive.
func (g *Group) CrashNode(name string) bool {
	for _, node := range g.nodes {
		if node.Name == name && node.alive {
			node.alive = false
			if node.window != nil {
				node.window.SetLive(false)
			}
			return true
		}
	}
	return false
}

// PowerLossNode cuts power to the named node: it leaves service like
// CrashNode, and an SDF node's replica additionally powers off
// (device and journal flip into their powered-off state) so in-flight
// writes tear exactly as the media model dictates. RestartNode must
// then remount the replica before the node can serve. Safe to call
// from scheduler context. It reports whether the node was found
// alive.
func (g *Group) PowerLossNode(name string) bool {
	for _, node := range g.nodes {
		if node.Name == name && node.alive {
			node.alive = false
			node.lostPower = true
			if node.window != nil {
				node.window.SetLive(false)
			}
			if node.replica != nil {
				node.replica.PowerLoss()
			}
			return true
		}
	}
	return false
}

// RestartNode brings a crashed node back and starts background
// re-replication of every key it missed, copied from healthy peers.
// An SDF node that lost power is first remounted: its device recovery
// and journal replay run in a background process, and the node
// rejoins the group only once the recovered slice is installed —
// reads never route to a half-recovered replica. It reports whether
// the node was found crashed.
func (g *Group) RestartNode(name string) bool {
	for _, node := range g.nodes {
		if node.Name != name || node.alive {
			continue
		}
		node := node
		if node.lostPower && node.replica != nil {
			g.env.Go("cluster/remount", func(p *sim.Proc) {
				t := g.env.Tracer()
				span := t.Begin(g.env.Now(), 0, "cluster/remount."+node.Name, trace.PhaseRecovery)
				_, _, err := node.replica.Remount(p, g.env)
				t.End(g.env.Now(), span)
				if err != nil {
					g.ctr.failedRemounts.Inc()
					return
				}
				node.Slice = node.replica.Slice
				node.lostPower = false
				node.catchingUp = true
				node.alive = true
				if node.window != nil {
					node.window.SetLive(true)
				}
				g.ctr.remounts.Inc()
				g.rereplicate(p, node)
				node.catchingUp = false
			})
			return true
		}
		node.alive = true
		node.catchingUp = true
		if node.window != nil {
			node.window.SetLive(true)
		}
		g.env.Go("cluster/rereplicate", func(p *sim.Proc) {
			g.rereplicate(p, node)
			node.catchingUp = false
		})
		return true
	}
	return false
}

// Put stores the value on every live replica in parallel and returns
// when all acknowledge or the replica deadline lapses — write
// availability follows the slowest node up to replicaDeadline. The
// value crosses each node's NIC before the slice write.
//
// On partial failure Put returns the first error, but the replicas
// that acknowledged keep the value: the group is diverged
// (DivergentPuts) until read-repair or re-replication reconciles the
// nodes marked dirty.
func (g *Group) Put(p *sim.Proc, key string, value []byte, size int) error {
	if g.cfg.Admission != nil {
		live := 0
		for _, node := range g.nodes {
			if node.alive {
				live++
			}
		}
		if 2*live > len(g.nodes) {
			switch g.cfg.Admission.Admit(p) {
			case coord.Delayed:
				g.ctr.delayedWrites.Inc()
			case coord.Shed:
				g.ctr.shedWrites.Inc()
				return ErrWriteShed
			}
		} else {
			// Majority down: shedding writes now would cost durability
			// exactly when the group can least afford it. Degrade to
			// best-effort admission until replicas return.
			g.ctr.bestEffortWrites.Inc()
		}
	}
	n := len(g.nodes)
	errs := make([]error, n)
	workers := make([]*sim.Proc, n)
	for i, node := range g.nodes {
		if !node.alive {
			errs[i] = fmt.Errorf("%w: %s", ErrNodeDown, node.Name)
			continue
		}
		i, node := i, node
		workers[i] = g.env.Go("cluster/put", func(wp *sim.Proc) {
			node.nic.Transfer(wp, size)
			errs[i] = node.Slice.Put(wp, key, value, size)
		})
	}
	deadline := g.env.Now() + replicaDeadline
	for i, w := range workers {
		if w == nil {
			continue
		}
		waitStart := g.env.Now()
		if !p.AwaitUntil(w.DoneSignal(), deadline) {
			errs[i] = fmt.Errorf("%w: %s", ErrReplicaTimeout, g.nodes[i].Name)
			t := g.env.Tracer()
			span := t.Begin(waitStart, 0, "cluster/put-timeout", trace.PhaseFault)
			t.End(g.env.Now(), span)
		}
	}
	acks := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			acks++
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		g.nodes[i].dirty[key] = true
		// A node that was down when this put started but is alive now
		// remounted mid-put: its restart-time re-replication pass ran
		// before this key was marked dirty, so catch the straggler with
		// another pass.
		if node := g.nodes[i]; errors.Is(err, ErrNodeDown) && node.alive {
			g.env.Go("cluster/rereplicate", func(wp *sim.Proc) {
				g.rereplicate(wp, node)
			})
		}
	}
	if firstErr == nil {
		g.ctr.puts.Inc()
		return nil
	}
	if acks > 0 {
		g.ctr.divergentPuts.Inc()
	}
	return firstErr
}

// readOrder returns the replica indices in routing order: placement
// order, but with replicas currently inside a granted erase window
// moved behind every settled one (they are paying erase latency right
// now — the coordinator guarantees at most one per slice, so a settled
// replica always exists while a majority is live), and replicas still
// catching up after a remount or restart (re-replication in flight)
// behind those — a half-caught-up replica serves reads only when no
// other replica can, keeping its recovery bandwidth for the catch-up
// itself and its possibly-stale keys out of the fast path.
func (g *Group) readOrder() []int {
	order := make([]int, 0, len(g.nodes))
	var inWindow, lagging []int
	for i, node := range g.nodes {
		switch {
		case node.alive && node.catchingUp:
			lagging = append(lagging, i)
		case node.alive && node.inWindow():
			inWindow = append(inWindow, i)
		default:
			order = append(order, i)
		}
	}
	if len(inWindow) > 0 {
		g.ctr.windowDeprioritized.Inc()
	}
	if len(lagging) > 0 {
		g.ctr.deprioritized.Inc()
	}
	return append(append(order, inWindow...), lagging...)
}

// Get serves a read from the replicas in routing order (placement
// order with catching-up replicas deprioritized — see readOrder),
// hedging to the next one when the current read is slow (HedgeAfter)
// and failing over on any read error (uncorrectable ECC, dead
// channels, crashed nodes). A recovered value is written back to the
// replicas that failed to serve it (read-repair) — including nodes
// diverged by an earlier partial Put.
func (g *Group) Get(p *sim.Proc, key string) ([]byte, int, error) {
	g.ctr.gets.Inc()
	order := g.readOrder()
	start := g.env.Now()
	// With a read deadline, every hedge timer is clamped to the one
	// deadline set at the start: slow replicas burn the shared budget,
	// they do not re-arm it. Past the deadline the loop stops waiting
	// and fans out to every remaining replica back-to-back.
	var deadline time.Duration
	if g.cfg.ReadDeadline > 0 {
		deadline = start + g.cfg.ReadDeadline
	}
	type result struct {
		value []byte
		size  int
		err   error
	}
	n := len(g.nodes)
	res := make([]*result, n)
	readers := make([]*sim.Proc, n)
	handled := make([]bool, n)
	var outstanding []int
	var failed []*Node
	next := 0
	var hedgeAt time.Duration
	for {
		// Collect finished readers in replica order.
		for _, i := range outstanding {
			if handled[i] || res[i] == nil {
				continue
			}
			handled[i] = true
			r, node := res[i], g.nodes[i]
			if r.err == nil {
				if i != order[0] {
					g.ctr.failovers.Inc()
				}
				node.nic.Transfer(p, r.size)
				g.readLat.Observe(g.env.Now() - start)
				g.repairAfterRead(node, key, r.value, r.size, failed)
				return r.value, r.size, nil
			}
			if errors.Is(r.err, ccdb.ErrNotFound) && !node.dirty[key] {
				// A key absent on an in-sync replica is absent
				// everywhere (replication is synchronous); report it
				// directly. A dirty replica's NotFound proves nothing.
				return nil, 0, r.err
			}
			failed = append(failed, node)
		}
		live := outstanding[:0]
		for _, i := range outstanding {
			if !handled[i] {
				live = append(live, i)
			}
		}
		outstanding = live
		for next < n && !g.nodes[order[next]].alive {
			next++ // crash-aware: never wait on a dead node
		}
		if len(outstanding) == 0 && next >= n {
			g.ctr.lost.Inc()
			return nil, 0, fmt.Errorf("%w: %q", ErrAllReplicasFailed, key)
		}
		hedgeable := g.cfg.HedgeAfter > 0 && len(outstanding) > 0
		if next < n && (len(outstanding) == 0 || (hedgeable && g.env.Now() >= hedgeAt)) {
			if len(outstanding) > 0 {
				g.ctr.hedges.Inc()
				t := g.env.Tracer()
				span := t.Begin(g.env.Now(), 0, "cluster/hedge", trace.PhaseFault)
				t.End(g.env.Now(), span)
			}
			i, node := order[next], g.nodes[order[next]]
			readers[i] = g.env.Go("cluster/get", func(wp *sim.Proc) {
				v, size, err := node.Slice.Get(wp, key)
				res[i] = &result{v, size, err}
			})
			outstanding = append(outstanding, i)
			next++
			hedgeAt = g.env.Now() + g.cfg.HedgeAfter
			if deadline > 0 && hedgeAt > deadline {
				hedgeAt = deadline
			}
			continue
		}
		// Park until any outstanding read finishes or the hedge timer
		// says to try the next replica.
		step := sim.NewSignal(g.env)
		for _, i := range outstanding {
			done := readers[i].DoneSignal()
			g.env.Go("cluster/watch", func(wp *sim.Proc) {
				wp.Await(done)
				step.Fire()
			})
		}
		if g.cfg.HedgeAfter > 0 && next < n {
			g.env.Schedule(hedgeAt-g.env.Now(), func() { step.Fire() })
		}
		p.Await(step)
	}
}

// repairAfterRead schedules read-repair for the replicas that failed
// this read plus any live replica still dirty for the key.
func (g *Group) repairAfterRead(winner *Node, key string, value []byte, size int, failed []*Node) {
	inFailed := make(map[*Node]bool, len(failed))
	for _, node := range failed {
		inFailed[node] = true
	}
	var targets []*Node
	for _, node := range g.nodes {
		if node == winner || !node.alive {
			continue
		}
		if inFailed[node] || node.dirty[key] {
			targets = append(targets, node)
		}
	}
	g.repair(targets, key, value, size)
}

// repair rewrites a recovered value to the given replicas.
func (g *Group) repair(targets []*Node, key string, value []byte, size int) {
	for _, node := range targets {
		node := node
		g.env.Go("cluster/repair", func(wp *sim.Proc) {
			if !node.alive {
				return
			}
			node.nic.Transfer(wp, size)
			if err := node.Slice.Put(wp, key, value, size); err == nil {
				delete(node.dirty, key)
				g.ctr.repairs.Inc()
			}
		})
	}
}

// rereplicate copies every key a restarted node missed from its
// healthy peers, in sorted key order for determinism.
func (g *Group) rereplicate(p *sim.Proc, node *Node) {
	if len(node.dirty) == 0 {
		return
	}
	t := g.env.Tracer()
	span := t.Begin(g.env.Now(), 0, "cluster/rereplicate."+node.Name, trace.PhaseFault)
	keys := make([]string, 0, len(node.dirty))
	for k := range node.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, peer := range g.nodes {
			if peer == node || !peer.alive {
				continue
			}
			value, size, err := peer.Slice.Get(p, key)
			if err != nil {
				continue
			}
			node.nic.Transfer(p, size)
			if err := node.Slice.Put(p, key, value, size); err == nil {
				delete(node.dirty, key)
				g.ctr.rereplications.Inc()
			}
			break
		}
	}
	t.End(g.env.Now(), span)
}
