// Package workload provides the request generators used by the
// evaluation harness: key populations, value-size distributions
// matching the paper's workloads (web pages ~32 KB, thumbnails
// ~128 KB, images ~512 KB; §3.3.1, and the 100 KB-1 MB mix of
// §3.3.3), and helpers that preload CCDB slices.
package workload

import (
	"fmt"
	"math/rand"

	"sdf/internal/ccdb"
	"sdf/internal/sim"
)

// SizeDist draws value sizes.
type SizeDist func(rng *rand.Rand) int

// Uniform returns sizes uniform in [min, max].
func Uniform(min, max int) SizeDist {
	if max < min {
		min, max = max, min
	}
	return func(rng *rand.Rand) int { return min + rng.Intn(max-min+1) }
}

// PaperWriteMix is the Figure 14 workload: "write requests whose sizes
// are primarily in the range between 100 KB and 1 MB".
func PaperWriteMix() SizeDist { return Uniform(100<<10, 1<<20) }

// Keys is a fixed key population with uniform random picks.
type Keys struct {
	keys []string
	rng  *rand.Rand
}

// NewKeys generates n keys with the given prefix.
func NewKeys(prefix string, n int, seed int64) *Keys {
	k := &Keys{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		k.keys = append(k.keys, fmt.Sprintf("%s-%08d", prefix, i))
	}
	return k
}

// All returns the population in generation order.
func (k *Keys) All() []string { return k.keys }

// Pick returns a uniformly random key.
func (k *Keys) Pick() string { return k.keys[k.rng.Intn(len(k.keys))] }

// Preload writes every key of the population into the slice with
// values of the given size and flushes, so subsequent reads hit
// storage. Patches land round-robin across the device's channels.
func Preload(p *sim.Proc, s *ccdb.Slice, keys *Keys, valueSize int) error {
	for _, key := range keys.All() {
		if err := s.Put(p, key, nil, valueSize); err != nil {
			return err
		}
	}
	return s.Flush(p)
}

// PreloadParallel preloads several slices concurrently, one loader
// process per slice, and waits for all of them.
func PreloadParallel(p *sim.Proc, env *sim.Env, slices []*ccdb.Slice, keySets []*Keys, valueSize int) error {
	var workers []*sim.Proc
	errs := make([]error, len(slices))
	for i := range slices {
		w := env.Go(fmt.Sprintf("workload/preload.%d", i), func(wp *sim.Proc) {
			errs[i] = Preload(wp, slices[i], keySets[i], valueSize)
		})
		workers = append(workers, w)
	}
	for _, w := range workers {
		p.Join(w)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
