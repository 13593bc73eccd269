package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
	"sdf/internal/workload"
)

// The two single-node KV workloads share one storage server, as in
// production (§2.4): one 44-channel SDF, the user-space block layer, a
// CCDB store and 8 slices on it, and 8 clients (one per slice) behind
// the rpcnet server model.
const kvSlices = 8

// kvNode is that server.
type kvNode struct {
	env    *sim.Env
	dev    *core.Device
	store  ccdb.Storage
	slices []*ccdb.Slice
	net    *rpcnet.Network
	l      layers
}

// newKVNode builds the node with blocksPerChannel logical blocks per
// channel. In traced pass A the slices reach the store through the
// harness's span-opening decorator.
func (r *rep) newKVNode(blocksPerChannel int, sliceCfg ccdb.Config) *kvNode {
	n := &kvNode{env: sim.NewEnv()}
	cfg := core.DefaultConfig()
	cfg.Channel.Nand.BlocksPerPlane = blocksPerChannel
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(n.env, cfg)
	if err != nil {
		panic(err)
	}
	n.dev = dev
	bl := blocklayer.New(n.env, dev, blocklayer.DefaultConfig())
	n.store = r.traceStore(n.env, ccdb.NewSDFStore(bl))
	for i := 0; i < kvSlices; i++ {
		n.slices = append(n.slices, ccdb.NewSlice(n.env, n.store, sliceCfg))
	}
	n.net = rpcnet.NewNetwork(n.env, rpcnet.DefaultConfig())
	n.l.devs = append(n.l.devs, dev)
	n.l.bls = append(n.l.bls, bl)
	n.l.slices = n.slices
	n.l.addNet(n.net)
	return n
}

// finish records what every KV repetition records last and tears the
// simulation down.
func (r *rep) finishKV(n *kvNode) {
	r.sloRate = float64(r.ops) / r.seconds
	if float64(r.failed) > 0.001*float64(r.attempted) {
		r.sloRate = 0
	}
	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(n)
	n.env.Close()
}

// kv-read: closed loop, 8 clients x batch 44 x 512 KB random Gets
// (Figures 10-12), 44 preloaded patches per slice so every slice's
// keys span all channels, no compaction, working set entirely on
// flash.
const (
	kvReadBatch   = 44
	kvReadValue   = 512 << 10
	kvReadPatches = 44    // per slice
	paperKVRead8  = 1.5e9 // Figure 11, 8 slices, batch 44, bytes/s
)

func runKVRead(r *rep) {
	rng := rand.New(rand.NewSource(r.seed))
	var n *kvNode
	var keys []*workload.Keys
	perPatch := (8 << 20) / (kvReadValue + 64)
	r.timed(&r.setup, func() {
		// A fan-in no preload reaches keeps compaction out of the run.
		sliceCfg := ccdb.DefaultConfig()
		sliceCfg.RunsPerTier = 1 << 20
		n = r.newKVNode(kvReadPatches*kvSlices*2/44+24, sliceCfg)
		for i := 0; i < kvSlices; i++ {
			keys = append(keys, workload.NewKeys(fmt.Sprintf("s%02d", i), kvReadPatches*perPatch, rng.Int63()))
		}
		boot := n.env.Go("bench/preload", func(p *sim.Proc) {
			if err := workload.PreloadParallel(p, n.env, n.slices, keys, kvReadValue); err != nil {
				r.failf("preload: %v", err)
			}
		})
		n.env.RunUntilDone(boot)
	})
	env := n.env

	r.measure(env, &n.l, func() {
		t0 := env.Now()
		var clients []*sim.Proc
		for i := range n.slices {
			slice, ks, client := n.slices[i], keys[i], n.net.NewClient()
			clients = append(clients, env.Go("bench/client", func(p *sim.Proc) {
				for env.Now() < t0+r.size.kvReadHorizon {
					start := env.Now()
					endOp := r.span(env, p, "client/op")
					endRPC := r.span(env, p, "rpcnet/call")
					parent := p.Span()
					bad := 0
					subs := make([]rpcnet.SubRequest, kvReadBatch)
					for j := range subs {
						key := ks.Pick()
						subs[j] = func(sp *sim.Proc) int {
							sp.SetSpan(parent)
							end := r.span(env, sp, "ccdb/get")
							_, size, err := slice.Get(sp, key)
							end()
							if err != nil || size != kvReadValue {
								bad++
								return 0
							}
							return size
						}
					}
					got := client.Call(p, 256, subs)
					endRPC()
					endOp()
					r.attempted++
					if bad > 0 {
						r.failed++
						r.failf("batch at %v: %d of %d gets failed or returned the wrong size", start, bad, kvReadBatch)
						continue
					}
					r.ops++
					r.bytes += int64(got)
					if start >= t0+r.size.kvReadWarmup {
						r.reads = append(r.reads, env.Now()-start)
					}
				}
			}))
		}
		for _, c := range clients {
			env.RunUntilDone(c)
		}
		r.seconds = (env.Now() - t0).Seconds()
	})

	r.readBack(n, func(i int) (*ccdb.Slice, string, int) {
		s := rng.Intn(kvSlices)
		return n.slices[s], keys[s].Pick(), kvReadValue
	})
	r.writeAmp = n.l.flashWriteAmp(int64(kvSlices*kvReadPatches*perPatch)*kvReadValue, 1)
	rate := float64(r.bytes) / r.seconds
	r.paperErrPct = 100 * math.Abs(rate-paperKVRead8) / paperKVRead8
	r.paperNote = "Figure 11: ~1.5 GB/s at 8 slices, batch 44, 512 KB"
	r.finishKV(n)
}

// readBack gets sizing.readback acknowledged keys after the horizon
// and checks each returns the size that was put.
func (r *rep) readBack(n *kvNode, pick func(i int) (slice *ccdb.Slice, key string, size int)) {
	check := n.env.Go("bench/readback", func(p *sim.Proc) {
		for i := 0; i < r.size.readback; i++ {
			slice, key, want := pick(i)
			if _, size, err := slice.Get(p, key); err != nil || size != want {
				r.failf("read-back %s: size %d err %v, want size %d", key, size, err, want)
			}
		}
	})
	n.env.RunUntilDone(check)
}

// kv-write-compact: closed loop, 8 writer clients stream Puts of
// 100 KB-1 MB into empty slices with the production fan-in (Figure
// 14): memtable, flush sort, merge compaction, 8 MB writes, frees,
// background and inline erases.
//
// Figure 14 reads ~1 GB/s device write+read at 16 slices and grows
// about linearly up to there; the 8-slice point is scaled from it.
const paperKVWrite8 = 1e9 * kvSlices / 16

func runKVWrite(r *rep) {
	rng := rand.New(rand.NewSource(r.seed))
	var n *kvNode
	r.timed(&r.setup, func() {
		// Room for the horizon's churn plus compaction outputs. The
		// block layer starts with every block awaiting its first erase;
		// running the idle-time erasers dry is the device's format, so
		// the measured phase starts from a deployed device's state.
		n = r.newKVNode(2000*2/44+24, ccdb.DefaultConfig())
		n.env.Run()
	})
	env := n.env

	// Seeded inputs: each writer's own size stream. The sizes put are
	// remembered so gets can be checked against them.
	sizes := workload.PaperWriteMix()
	type acked struct {
		key  string
		size int
	}
	put := make([][]acked, kvSlices)
	var userBytes int64
	r.primaryWrite = true
	r.measure(env, &n.l, func() {
		t0 := env.Now()
		var clients []*sim.Proc
		for i := range n.slices {
			i, slice, client := i, n.slices[i], n.net.NewClient()
			wrng := rand.New(rand.NewSource(rng.Int63()))
			clients = append(clients, env.Go("bench/client", func(p *sim.Proc) {
				for seq := 0; env.Now() < t0+r.size.kvWriteHorizon; seq++ {
					size := sizes(wrng)
					key := fmt.Sprintf("w%02d-%09d", i, seq)
					start := env.Now()
					endOp := r.span(env, p, "client/op")
					endRPC := r.span(env, p, "rpcnet/call")
					parent := p.Span()
					var err error
					client.Call(p, size, []rpcnet.SubRequest{func(sp *sim.Proc) int {
						sp.SetSpan(parent)
						end := r.span(env, sp, "ccdb/put")
						err = slice.Put(sp, key, nil, size)
						end()
						return 64
					}})
					endRPC()
					endOp()
					r.attempted++
					if err != nil {
						r.failed++
						r.failf("put %s: %v", key, err)
						continue
					}
					put[i] = append(put[i], acked{key, size})
					userBytes += int64(size)
					r.ops++
					r.bytes += int64(size)
					if start >= t0+r.size.kvWriteWarmup {
						r.writes = append(r.writes, env.Now()-start)
					}
				}
			}))
		}
		for _, c := range clients {
			env.RunUntilDone(c)
		}
		r.seconds = (env.Now() - t0).Seconds()
	})

	r.readBack(n, func(int) (*ccdb.Slice, string, int) {
		s := rng.Intn(kvSlices)
		a := put[s][rng.Intn(len(put[s]))]
		return n.slices[s], a.key, a.size
	})
	r.putBytes = userBytes
	r.writeAmp = n.l.flashWriteAmp(userBytes, 1)
	devRate := (r.ctr["core.read_bytes"] + r.ctr["core.write_bytes"]) / r.seconds
	r.paperErrPct = 100 * math.Abs(devRate-paperKVWrite8) / paperKVWrite8
	r.paperNote = "Figure 14: ~1 GB/s device write+read at 16 slices, scaled to 8 slices (0.5 GB/s)"
	r.finishKV(n)
}
