package main

import (
	"sort"
	"strings"
	"time"

	"sdf/internal/ccdb"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// tracedStore is the harness-owned seam between CCDB and the block
// layer in traced pass A: a span around each storage call, so CCDB's
// own virtual time (lookup, memtable, merge) separates from the time
// below it.
type tracedStore struct {
	*ccdb.SDFStore // BlockSize, PageSize and LiveRefs forward unchanged
	r              *rep
	env            *sim.Env
}

// traceStore wraps s in pass A and returns s itself otherwise, so the
// decorator is absent from every measured repetition.
func (r *rep) traceStore(env *sim.Env, s *ccdb.SDFStore) ccdb.Storage {
	if r.tr == nil {
		return s
	}
	return &tracedStore{SDFStore: s, r: r, env: env}
}

func (t *tracedStore) Write(p *sim.Proc, data []byte) (ccdb.Ref, error) {
	defer t.r.span(t.env, p, "store/write")()
	return t.SDFStore.Write(p, data)
}

func (t *tracedStore) ReadAt(p *sim.Proc, ref ccdb.Ref, off, size int) ([]byte, error) {
	defer t.r.span(t.env, p, "store/read")()
	return t.SDFStore.ReadAt(p, ref, off, size)
}

func (t *tracedStore) Free(p *sim.Proc, ref ccdb.Ref) error {
	defer t.r.span(t.env, p, "store/free")()
	return t.SDFStore.Free(p, ref)
}

// vtLayers are the layers virtual time is attributed to, in path
// order from the client down to the NAND array.
var vtLayers = []string{"client", "rpcnet", "cluster", "ccdb", "blocklayer", "core", "hostif", "flashchan.queue", "flashchan.bus", "nand"}

// spanLayer maps a span name — the harness's or the program's — to the
// layer whose virtual time it is. Unknown names return "".
func spanLayer(name string) string {
	prefix, _, _ := strings.Cut(name, "/")
	switch prefix {
	case "client":
		return "client"
	case "rpcnet", "rpc":
		return "rpcnet"
	case "cluster", "admission":
		return "cluster"
	case "ccdb", "store":
		return "ccdb"
	case "blocklayer":
		return "blocklayer"
	case "sdf":
		return "core"
	case "pcie", "stack":
		return "hostif"
	case "nand":
		return "nand"
	case "chan":
		if name == "chan/bus" {
			return "flashchan.bus"
		}
		return "flashchan.queue"
	}
	return ""
}

// spanReport is what pass A's spans say.
type spanReport struct {
	events     int
	spans      int
	orphans    int                // spans whose root is not a client op
	selfByLayr map[string]float64 // summed self time, simulated ms, client-rooted spans only
}

type spanNode struct {
	name       string
	begin, end time.Duration
	parent     trace.SpanID
	seen, open bool
}

// analyzeSpans builds the span forest and attributes virtual time: a
// span's self time is its duration minus the union of the intervals
// its children cover; it counts towards its layer when the span's root
// is a client op. Parallel children (44 sub-requests of one batch)
// each contribute their own self time, so a layer's sum is resource
// time, not a share of the request's latency.
func analyzeSpans(events []trace.Event) spanReport {
	rep := spanReport{events: len(events), selfByLayr: map[string]float64{}}
	// A collector numbers its spans 1, 2, 3, ..., so the forest fits
	// in slices indexed by span ID.
	var maxID trace.SpanID
	var last time.Duration
	for _, ev := range events {
		maxID = max(maxID, ev.Span)
		last = max(last, ev.At)
	}
	nodes := make([]spanNode, maxID+1)
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSpanBegin:
			nodes[ev.Span] = spanNode{name: ev.Name, begin: ev.At, parent: ev.Parent, seen: true, open: true}
		case trace.KindSpanEnd:
			if n := &nodes[ev.Span]; n.seen {
				n.end, n.open = ev.At, false
			}
		}
	}
	// Children grouped by parent: kids[first[p]:first[p+1]].
	first := make([]int, maxID+2)
	for id := range nodes {
		n := &nodes[id]
		if !n.seen {
			continue
		}
		if n.open { // still running when the simulation stopped
			n.end = last
		}
		rep.spans++
		if nodes[n.parent].seen {
			first[n.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]trace.SpanID, first[len(first)-1])
	fill := append([]int(nil), first...)
	for id := range nodes {
		if n := &nodes[id]; n.seen && nodes[n.parent].seen {
			kids[fill[n.parent]] = trace.SpanID(id)
			fill[n.parent]++
		}
	}
	// IDs are handed out at Begin, so a parent's ID is below its
	// children's and one ascending pass resolves every root.
	clientRooted := make([]bool, maxID+1)
	var ivs []interval
	for id := range nodes {
		n := &nodes[id]
		if !n.seen {
			continue
		}
		layer := spanLayer(n.name)
		if nodes[n.parent].seen {
			clientRooted[id] = clientRooted[n.parent]
		} else {
			clientRooted[id] = layer == "client"
		}
		if !clientRooted[id] {
			rep.orphans++
			continue
		}
		if layer == "" {
			continue
		}
		ivs = ivs[:0]
		for _, c := range kids[first[id]:first[id+1]] {
			ch := &nodes[c]
			if a, b := max(ch.begin, n.begin), min(ch.end, n.end); b > a {
				ivs = append(ivs, interval{a, b})
			}
		}
		rep.selfByLayr[layer] += ms(n.end - n.begin - covered(ivs, n.begin))
	}
	return rep
}

type interval struct{ a, b time.Duration }

// covered is the length of the union of ivs, all of which start at or
// after from. It sorts ivs in place.
func covered(ivs []interval, from time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, reach := time.Duration(0), from
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}
