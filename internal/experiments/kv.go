package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
	"sdf/internal/ssd"
	"sdf/internal/workload"
)

// deviceKind selects the storage node's device for the production
// experiments.
type deviceKind int

const (
	devSDF deviceKind = iota
	devGen3
	devIntel
)

func (d deviceKind) String() string {
	switch d {
	case devSDF:
		return "Baidu SDF"
	case devGen3:
		return "Huawei Gen3"
	default:
		return "Intel 320"
	}
}

// kvNode is one storage server: a device, a CCDB store on it, and a
// set of slices (§2.4). All slices share the device, as in production.
type kvNode struct {
	env    *sim.Env
	kind   deviceKind
	sdf    *core.Device
	ssd    *ssd.SSD
	store  ccdb.Storage
	slices []*ccdb.Slice
	keys   []*workload.Keys
}

// newKVNode builds the node and preloads every slice with
// patchesPerSlice patches of valueSize values. Read-only experiments
// pass a large runsPerTier so the preload settles without compaction
// churn; write experiments use the production fan-in.
func newKVNode(env *sim.Env, kind deviceKind, nSlices, patchesPerSlice, valueSize, runsPerTier int) *kvNode {
	n := &kvNode{env: env, kind: kind}
	switch kind {
	case devSDF:
		// Enough logical blocks for the dataset plus churn.
		blocks := (patchesPerSlice*nSlices*2)/44 + 8
		n.sdf = newSDF(env, blocks+16)
		n.store = newSDFStoreFrom(env, n.sdf)
	case devGen3:
		blocks := (patchesPerSlice*nSlices*2*4)/(40*4) + 10
		n.ssd = newSSD(env, ssd.HuaweiGen3(0.25).ScaleBlocks(blocks+8))
		n.store = ccdb.NewSSDStore(n.ssd, 8<<20)
	case devIntel:
		blocks := (patchesPerSlice*nSlices*2*4)/(9*4) + 10
		n.ssd = newSSD(env, ssd.Intel320(0.20).ScaleBlocks(blocks+8))
		n.store = ccdb.NewSSDStore(n.ssd, 8<<20)
	}
	sliceCfg := ccdb.DefaultConfig()
	if runsPerTier > 0 {
		sliceCfg.RunsPerTier = runsPerTier
	}
	for i := 0; i < nSlices; i++ {
		n.slices = append(n.slices, ccdb.NewSlice(env, n.store, sliceCfg))
		perPatch := 1
		if valueSize > 0 {
			perPatch = (8 << 20) / (valueSize + 64)
		}
		n.keys = append(n.keys, workload.NewKeys(fmt.Sprintf("s%02d", i),
			patchesPerSlice*perPatch, int64(i+1)))
	}
	if patchesPerSlice > 0 && valueSize > 0 {
		boot := env.Go("preload", func(p *sim.Proc) {
			if err := workload.PreloadParallel(p, env, n.slices, n.keys, valueSize); err != nil {
				panic(err)
			}
		})
		env.RunUntilDone(boot)
	}
	return n
}

// newSDFStoreFrom wires an existing SDF device through the block layer.
func newSDFStoreFrom(env *sim.Env, dev *core.Device) *ccdb.SDFStore {
	return ccdb.NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
}

// counters returns cumulative (hostRead, hostWrite) bytes at the
// storage node's device.
func (n *kvNode) counters() (read, written int64) {
	if n.sdf != nil {
		r, w, _ := n.sdf.Counters()
		return r, w
	}
	st := n.ssd.Stats()
	return st.HostReadBytes, st.HostWriteBytes
}

// kvReadRate measures batched random-read throughput: one client per
// slice issues synchronous requests of `batch` sub-reads of valueSize
// values (§3.3.1, Figures 10-12).
func kvReadRate(opts Options, kind deviceKind, nSlices, batch, valueSize int) float64 {
	env := opts.newEnv()
	// Every slice's key range spans all 44 channels, as it would after
	// any real accumulation of data (consecutive patch IDs go to
	// consecutive channels).
	const patchesPerSlice = 44
	node := newKVNode(env, kind, nSlices, patchesPerSlice, valueSize, 1<<20)
	net := rpcnet.NewNetwork(env, rpcnet.DefaultConfig())
	start := env.Now()
	warmup := start + opts.scale(500*time.Millisecond)
	deadline := start + opts.scale(2500*time.Millisecond)
	return loopRate(env, nSlices, warmup, deadline, func(i int) func(p *sim.Proc) int {
		slice, keys := node.slices[i], node.keys[i]
		client := net.NewClient()
		return func(p *sim.Proc) int {
			subs := make([]rpcnet.SubRequest, batch)
			for j := range subs {
				key := keys.Pick()
				subs[j] = func(sp *sim.Proc) int {
					_, size, err := slice.Get(sp, key)
					if err != nil {
						return 0
					}
					return size
				}
			}
			return client.Call(p, 256, subs)
		}
	})
}

// Figure10 regenerates Figure 10: one slice, random 512 KB reads,
// batch size swept — SDF needs batched (concurrent) sub-requests to
// reach its channels, while the Gen3's 8 KB striping parallelizes even
// a single request.
func Figure10(opts Options) Table {
	t := Table{
		ID:     "Figure 10",
		Title:  "One slice, random 512 KB reads: throughput vs batch size",
		Header: []string{"Batch", "Baidu SDF", "Huawei Gen3"},
		Notes: []string{
			"paper: SDF grows 38 -> ~740 MB/s; Gen3 starts at 245 MB/s and plateaus near ~700 MB/s",
			"crossover: SDF overtakes Gen3 once the batch reaches ~32",
		},
	}
	for _, batch := range []int{1, 4, 8, 16, 32, 44} {
		sdfRate := kvReadRate(opts, devSDF, 1, batch, 512<<10)
		gen3Rate := kvReadRate(opts, devGen3, 1, batch, 512<<10)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch), mb(sdfRate), mb(gen3Rate),
		})
	}
	return t
}

// Figure11 regenerates Figure 11: four and eight slices with the same
// batch sweep — slice concurrency multiplies SDF's usable channels.
func Figure11(opts Options) Table {
	t := Table{
		ID:     "Figure 11",
		Title:  "Four/eight slices, random 512 KB reads: throughput vs batch size",
		Header: []string{"Batch", "SDF 4 slices", "SDF 8 slices", "Gen3 4 slices", "Gen3 8 slices"},
		Notes: []string{
			"paper: SDF 8-slice throughput reaches ~1.5 GB/s; Gen3 curves for 4 and 8 slices coincide near ~700 MB/s",
		},
	}
	for _, batch := range []int{1, 4, 8, 16, 32, 44} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch),
			mb(kvReadRate(opts, devSDF, 4, batch, 512<<10)),
			mb(kvReadRate(opts, devSDF, 8, batch, 512<<10)),
			mb(kvReadRate(opts, devGen3, 4, batch, 512<<10)),
			mb(kvReadRate(opts, devGen3, 8, batch, 512<<10)),
		})
	}
	return t
}

// Figure12 regenerates Figure 12: batch fixed at 44, request size
// (web pages / thumbnails / images) crossed with slice count.
func Figure12(opts Options) Table {
	t := Table{
		ID:     "Figure 12",
		Title:  "Batch 44: throughput by request size and slice count",
		Header: []string{"Config", "32 KB", "128 KB", "512 KB"},
		Notes: []string{
			"paper: with >= 4 slices SDF serves small and large requests at high throughput; 1 slice is concurrency-limited",
		},
	}
	for _, kind := range []deviceKind{devGen3, devSDF} {
		for _, slices := range []int{1, 4, 8} {
			row := []string{fmt.Sprintf("%s, %d slice(s)", kind, slices)}
			for _, size := range []int{32 << 10, 128 << 10, 512 << 10} {
				row = append(row, mb(kvReadRate(opts, kind, slices, 44, size)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Figure13 regenerates Figure 13: inverted-index construction —
// every requested slice scans its whole key range with six threads of
// synchronous sequential reads (§3.3.2).
func Figure13(opts Options) Table {
	t := Table{
		ID:     "Figure 13",
		Title:  "Sequential scan throughput vs slice count (6 threads/slice)",
		Header: []string{"Slices", "Baidu SDF", "Huawei Gen3", "Intel 320"},
		Notes: []string{
			"paper: SDF scales to ~1.5 GB/s at 16 slices; Gen3 stays flat/declining near ~650 MB/s; Intel 320 constant ~200 MB/s",
		},
	}
	patches := 12
	if opts.Quick {
		patches = 8
	}
	for _, slices := range []int{1, 2, 4, 8, 16, 32} {
		row := []string{fmt.Sprintf("%d", slices)}
		for _, kind := range []deviceKind{devSDF, devGen3, devIntel} {
			row = append(row, mb(scanRate(opts, kind, slices, patches)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// scanRate runs one full scan of every slice concurrently and returns
// total bytes / completion time.
func scanRate(opts Options, kind deviceKind, nSlices, patchesPerSlice int) float64 {
	env := opts.newEnv()
	node := newKVNode(env, kind, nSlices, patchesPerSlice, 512<<10, 1<<20)
	start := env.Now()
	var total int64
	var workers []*sim.Proc
	for _, slice := range node.slices {
		w := env.Go("scanner", func(p *sim.Proc) {
			n, err := slice.Scan(p, 6)
			if err != nil {
				panic(err)
			}
			total += n
		})
		workers = append(workers, w)
	}
	waiter := env.Go("wait", func(p *sim.Proc) {
		for _, w := range workers {
			p.Join(w)
		}
	})
	env.RunUntilDone(waiter)
	elapsed := env.Now() - start
	env.Close()
	if elapsed <= 0 {
		return 0
	}
	return float64(total) / elapsed.Seconds()
}

// Figure14 regenerates Figure 14: one writer client per slice streams
// KV writes (values 100 KB-1 MB) while compaction generates internal
// reads; device-level read and write throughput are reported per
// slice count (§3.3.3).
func Figure14(opts Options) Table {
	t := Table{
		ID:     "Figure 14",
		Title:  "Write workload with compaction: device throughput vs slice count",
		Header: []string{"Slices", "SDF write", "SDF read", "Gen3 write", "Gen3 read"},
		Notes: []string{
			"paper: SDF write+read throughput grows to ~1 GB/s at 16 slices; Gen3 peaks early and its compaction reads starve as slices increase",
		},
	}
	for _, slices := range []int{1, 2, 4, 8, 16, 32} {
		sw, sr := writeCompactionRates(opts, devSDF, slices)
		gw, gr := writeCompactionRates(opts, devGen3, slices)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", slices), mb(sw), mb(sr), mb(gw), mb(gr),
		})
	}
	return t
}

// writeCompactionRates measures device-level write and read rates
// while writer clients stream Puts through CCDB.
func writeCompactionRates(opts Options, kind deviceKind, nSlices int) (write, read float64) {
	env := opts.newEnv()
	// Empty slices, but a device sized for several seconds of write
	// churn plus compaction outputs (~16 GB).
	node := newKVNode(env, kind, nSlices, 2000/nSlices, 0, 0)
	net := rpcnet.NewNetwork(env, rpcnet.DefaultConfig())
	sizes := workload.PaperWriteMix()
	rng := rand.New(rand.NewSource(17))
	warmup := opts.scale(2 * time.Second)
	deadline := opts.scale(6 * time.Second)
	for i, slice := range node.slices {
		client := net.NewClient()
		seq := 0
		env.Go("writer", func(p *sim.Proc) {
			for env.Now() < deadline {
				size := sizes(rng)
				key := fmt.Sprintf("w%02d-%09d", i, seq)
				seq++
				client.Call(p, size, []rpcnet.SubRequest{func(sp *sim.Proc) int {
					if err := slice.Put(sp, key, nil, size); err != nil {
						panic(err)
					}
					return 64
				}})
			}
		})
	}
	env.RunUntil(warmup)
	r0, w0 := node.counters()
	env.RunUntil(deadline)
	r1, w1 := node.counters()
	env.Close()
	window := (deadline - warmup).Seconds()
	return float64(w1-w0) / window, float64(r1-r0) / window
}
