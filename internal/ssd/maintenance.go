package ssd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sdf/internal/sim"
)

// staticWLPeriod is how often the static wear leveler scans the
// device; defaultWLSpread is the erase-count imbalance that triggers a
// migration unless the profile overrides it.
const (
	staticWLPeriod  = 2 * time.Second
	defaultWLSpread = 16
)

// wlSpread returns the configured trigger threshold.
func (s *SSD) wlSpread() int {
	if s.prof.StaticWLSpread > 0 {
		return s.prof.StaticWLSpread
	}
	return defaultWLSpread
}

// staticWLLoop periodically migrates cold blocks with low erase counts
// so their wear headroom becomes available. SDF deliberately omits
// this feature: the sporadic data movement causes the performance
// variation conventional SSDs exhibit (§2.2).
func (s *SSD) staticWLLoop(p *sim.Proc) {
	for {
		p.Wait(staticWLPeriod)
		for c, ch := range s.channels {
			if s.channelDegraded(c) {
				continue // unreachable flash: nothing to level
			}
			for _, pf := range ch.planes {
				pf.maybeLevel(p)
			}
		}
	}
}

// maybeLevel migrates the coldest full block of the plane if the wear
// spread exceeds the threshold.
func (pf *planeFTL) maybeLevel(p *sim.Proc) {
	minEC, maxEC := 1<<30, 0
	coldest := -1
	for b := 0; b < pf.plane.Blocks(); b++ {
		if pf.plane.Bad(b) {
			continue
		}
		ec := pf.plane.EraseCount(b)
		if ec > maxEC {
			maxEC = ec
		}
		if ec < minEC {
			minEC = ec
		}
		if b == pf.hostOpen || b == pf.gcOpen || pf.pooled[b] {
			continue
		}
		if pf.plane.WritePtr(b) != pf.ssd.prof.Nand.PagesPerBlock {
			continue
		}
		if coldest < 0 || ec < pf.plane.EraseCount(coldest) {
			coldest = b
		}
	}
	if coldest < 0 || maxEC-minEC < pf.ssd.wlSpread() {
		return
	}
	pf.gcMu.Acquire(p)
	defer pf.gcMu.Release()
	if pf.plane.WritePtr(coldest) != pf.ssd.prof.Nand.PagesPerBlock || coldest == pf.gcOpen {
		return // state moved while we waited for the lock
	}
	pf.moveValid(p, coldest)
	pf.pushFree(coldest)
	pf.signalSpace()
	pf.ssd.wlMoves++
}

// WarmFill populates the first frac of the logical space in zero
// simulated time, as if it had been written sequentially. Experiments
// use it to start from a realistic device state (e.g. "almost full";
// Figure 8) without simulating the fill traffic.
func (s *SSD) WarmFill(frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("ssd: WarmFill fraction %v out of [0,1]", frac)
	}
	n := int64(frac * float64(s.logicalPages))
	fill := make(map[*planeFTL][]int64)
	for lpn := int64(0); lpn < n; lpn++ {
		if s.mapping[lpn] != unmapped {
			return fmt.Errorf("ssd: WarmFill on a non-empty device")
		}
		c := s.placement(lpn)
		ch := s.channels[c]
		pf := ch.planes[ch.next%len(ch.planes)]
		ch.next++
		fill[pf] = append(fill[pf], lpn)
	}
	for _, ch := range s.channels {
		for _, pf := range ch.planes {
			lpns, ok := fill[pf]
			if !ok {
				continue
			}
			if err := pf.warmFill(lpns); err != nil {
				return err
			}
		}
	}
	return nil
}

// WarmFillRandom populates frac of the logical space in zero simulated
// time with pages scattered uniformly over (nearly) all physical
// blocks — the steady-state block occupancy a long uniform-random
// write history produces. Unlike WarmFill, this leaves every block
// partially invalid and the free pool at the GC watermark, so garbage
// collection is active from the first simulated write (Figures 1
// and 8 start from this state).
func (s *SSD) WarmFillRandom(frac float64, seed int64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("ssd: WarmFillRandom fraction %v out of [0,1]", frac)
	}
	rng := rand.New(rand.NewSource(seed))
	n := int64(frac * float64(s.logicalPages))
	fill := make(map[*planeFTL][]int64)
	for lpn := int64(0); lpn < n; lpn++ {
		if s.mapping[lpn] != unmapped {
			return fmt.Errorf("ssd: WarmFillRandom on a non-empty device")
		}
		c := s.placement(lpn)
		ch := s.channels[c]
		pf := ch.planes[ch.next%len(ch.planes)]
		ch.next++
		fill[pf] = append(fill[pf], lpn)
	}
	for _, ch := range s.channels {
		for _, pf := range ch.planes {
			if err := pf.warmFillRandom(fill[pf], rng); err != nil {
				return err
			}
		}
	}
	return nil
}

// warmFillRandom distributes lpns over all blocks except a small free
// reserve. Per-block fullness is drawn from the steady-state
// distribution of greedy garbage collection under uniform random
// writes: a block of age a retains v(a) = e^(-la) of its pages and is
// collected at fullness m, giving density proportional to 1/v on
// [m, 1], where m solves (1-m)/ln(1/m) = u (u = occupied fraction of
// usable slots). Starting from this distribution, GC exhibits its
// steady-state write amplification immediately instead of only after
// a device-sized turnover.
func (pf *planeFTL) warmFillRandom(lpns []int64, rng *rand.Rand) error {
	prof := &pf.ssd.prof
	ppb := prof.Nand.PagesPerBlock
	keep := gcLowWater + 1
	use := len(pf.free) - keep
	if use < 1 {
		return fmt.Errorf("ssd: plane %d.%d has no blocks to warm-fill", pf.ch, pf.pi)
	}
	slots := use * ppb
	if len(lpns) > slots {
		return fmt.Errorf("ssd: plane %d.%d warm-fill overflow: %d pages into %d slots",
			pf.ch, pf.pi, len(lpns), slots)
	}
	if len(lpns) == 0 {
		return nil // nothing stored on this plane; leave all blocks free
	}
	blocks := make([]int, use)
	copy(blocks, pf.free[len(pf.free)-use:])
	pf.free = pf.free[:len(pf.free)-use]
	for _, b := range blocks {
		pf.pooled[b] = false
		if err := pf.plane.Preload(b, ppb); err != nil {
			return err
		}
	}
	u := float64(len(lpns)) / float64(slots)
	if u > 0.99 {
		u = 0.99
	}
	m := victimFullness(u)
	// Draw per-block fullness by inverse CDF: v = m * (1/m)^r.
	counts := make([]int, use)
	total := 0
	for i := range counts {
		v := m * math.Pow(1/m, rng.Float64())
		counts[i] = int(v * float64(ppb))
		total += counts[i]
	}
	// Adjust to the exact page count.
	for total < len(lpns) {
		i := rng.Intn(use)
		if counts[i] < ppb {
			counts[i]++
			total++
		}
	}
	for total > len(lpns) {
		i := rng.Intn(use)
		if counts[i] > 0 {
			counts[i]--
			total--
		}
	}
	next := 0
	for i, b := range blocks {
		for pg := 0; pg < counts[i]; pg++ {
			lpn := lpns[next]
			next++
			pf.rev[b][pg] = lpn
			pf.ssd.mapping[lpn] = packLoc(pf.ch, pf.pi, b, pg)
		}
		pf.valid[b] = int32(counts[i])
	}
	return nil
}

// victimFullness solves (1-m)/ln(1/m) = u for m by bisection: the
// steady-state fullness at which greedy GC collects victim blocks.
func victimFullness(u float64) float64 {
	lo, hi := 1e-9, 1-1e-9
	f := func(m float64) float64 { return (1 - m) / math.Log(1/m) }
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// warmFill lays lpns into fresh blocks sequentially, leaving the last
// (possibly partial) block open for further host writes.
func (pf *planeFTL) warmFill(lpns []int64) error {
	prof := &pf.ssd.prof
	perBlock := prof.Nand.PagesPerBlock
	for start := 0; start < len(lpns); start += perBlock {
		if len(pf.free) <= gcReserve {
			return fmt.Errorf("ssd: WarmFill exhausted free blocks on channel %d plane %d", pf.ch, pf.pi)
		}
		b := pf.popFree()
		end := start + perBlock
		if end > len(lpns) {
			end = len(lpns)
		}
		count := end - start
		if err := pf.plane.Preload(b, count); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			lpn := lpns[start+i]
			pf.rev[b][i] = lpn
			pf.ssd.mapping[lpn] = packLoc(pf.ch, pf.pi, b, i)
		}
		pf.valid[b] = int32(count)
		if count < perBlock {
			pf.hostOpen = b
		}
	}
	return nil
}
