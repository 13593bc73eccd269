package ssd

import (
	"errors"
	"fmt"
	"math"

	"sdf/internal/hostif"
	"sdf/internal/metrics"
	"sdf/internal/nand"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// ErrDeviceFull is returned when a write would exceed logical capacity.
var ErrDeviceFull = errors.New("ssd: write beyond logical capacity")

// unmapped marks a logical page with no flash location.
const unmapped = ^uint64(0)

// loc packs a flash location: channel(8) | plane(8) | block(32) | page(16).
func packLoc(ch, plane, block, page int) uint64 {
	return uint64(ch)<<56 | uint64(plane)<<48 | uint64(block)<<16 | uint64(page)
}

func unpackLoc(l uint64) (ch, plane, block, page int) {
	return int(l >> 56), int(l >> 48 & 0xff), int(l >> 16 & 0xffffffff), int(l & 0xffff)
}

// revInvalid and revParity are sentinel owners in the reverse map.
const (
	revInvalid int64 = -1
)

// planeFTL is the per-plane slice of the page-mapped FTL: free block
// pool, open blocks for host and GC writes, and the reverse map that
// GC uses to find the owners of valid pages.
type planeFTL struct {
	ssd      *SSD
	ch       int
	pi       int
	plane    *nand.Plane
	free     []int
	pooled   []bool // block is in the free pool (not a GC candidate)
	hostOpen int
	gcOpen   int
	rev      [][]int64 // [block][page] -> lpn, or revInvalid
	valid    []int32   // valid pages per block
	writeMu  *sim.Resource
	gcMu     *sim.Resource // serializes GC and static-WL moves
	gcKick   sim.Signal    // re-armed by gcLoop once it has run
	space    sim.Signal    // re-armed after each Fire
}

// channel groups the planes behind one flash bus.
type channel struct {
	bus    *sim.Link
	planes []*planeFTL
	next   int // round-robin plane cursor for allocation
}

// SSD is a conventional SSD: one controller, striped channels, page
// FTL with garbage collection. It is a timing model; payloads are not
// stored (the functional data path is exercised on the SDF side).
type SSD struct {
	prof  Profile
	env   *sim.Env
	iface *hostif.Interface
	stack *hostif.Stack
	ctrl  *sim.Resource // FTL engine: page processing, flush, GC
	front *sim.Resource // host front-end: request intake, buffer ingest

	channels     []*channel
	degraded     []bool // per-channel degraded-parity mode (see degraded.go)
	dataCh       []int
	parityCh     []int
	chips        []*nand.Chip
	mapping      []uint64
	logicalPages int64
	parityRows   int64 // rows per parity channel

	buffer *writeBuffer

	// Parity row cursors, one per parity group.
	parityAcc []int
	parityCur []int64

	// Statistics.
	hostReadBytes  int64
	hostWriteBytes int64
	hostPages      int64
	gcMoved        int64
	parityPages    int64
	rmwReads       int64
	gcRuns         int64
	wlMoves        int64
	rebuiltPages   int64
}

// New builds the SSD and starts its background processes (per-plane
// GC, buffer flusher, optional static wear leveler).
func New(env *sim.Env, prof Profile) (*SSD, error) {
	if prof.Channels < 1 || prof.Chips < 1 {
		return nil, fmt.Errorf("ssd: bad geometry")
	}
	if prof.Nand.RetainData {
		return nil, fmt.Errorf("ssd: the conventional SSD model is timing-only")
	}
	s := &SSD{
		prof:  prof,
		env:   env,
		iface: prof.newInterface(env),
		stack: hostif.NewStack(env, prof.Stack),
		ctrl:  sim.NewResource(env, 1),
		front: sim.NewResource(env, 1),
	}
	for c := 0; c < prof.Channels; c++ {
		ch := &channel{bus: sim.NewLink(env, prof.BusRate, prof.BusOverhead)}
		for i := 0; i < prof.Chips; i++ {
			np := prof.Nand
			np.Seed = prof.Seed*7919 + int64(c*prof.Chips+i)
			chip := nand.New(env, np)
			s.chips = append(s.chips, chip)
			for pl := 0; pl < chip.Planes(); pl++ {
				pf := &planeFTL{
					ssd:      s,
					ch:       c,
					pi:       len(ch.planes),
					plane:    chip.Plane(pl),
					hostOpen: -1,
					gcOpen:   -1,
					writeMu:  sim.NewResource(env, 1),
					gcMu:     sim.NewResource(env, 1),
				}
				nb := pf.plane.Blocks()
				pf.rev = make([][]int64, nb)
				pf.valid = make([]int32, nb)
				pf.pooled = make([]bool, nb)
				for b := 0; b < nb; b++ {
					if !pf.plane.Bad(b) {
						pf.free = append(pf.free, b)
						pf.pooled[b] = true
					}
					row := make([]int64, prof.Nand.PagesPerBlock)
					for i := range row {
						row[i] = revInvalid
					}
					pf.rev[b] = row
				}
				ch.planes = append(ch.planes, pf)
				env.Go(fmt.Sprintf("ssd/gc/%d.%d", c, pf.pi), pf.gcLoop)
			}
		}
		s.channels = append(s.channels, ch)
	}
	// Partition channels into parity groups: with ratio N, every
	// (N+1)-th channel stores parity.
	for c := 0; c < prof.Channels; c++ {
		if prof.ParityRatio > 0 && (c+1)%(prof.ParityRatio+1) == 0 {
			s.parityCh = append(s.parityCh, c)
		} else {
			s.dataCh = append(s.dataCh, c)
		}
	}
	groups := len(s.parityCh)
	if groups > 0 {
		s.parityAcc = make([]int, groups)
		s.parityCur = make([]int64, groups)
	}
	// Logical capacity: data-channel raw minus over-provisioning,
	// minus a hidden reserve so GC can run even at "0%" OP.
	pagesPerChannel := int64(prof.Nand.PagesPerBlock) * int64(prof.Nand.BlocksPerPlane) *
		int64(prof.Nand.Planes) * int64(prof.Chips)
	rawDataPages := pagesPerChannel * int64(len(s.dataCh))
	reserveBlocks := int64(gcLowWater+3) * int64(len(s.dataCh)) * int64(prof.Nand.Planes*prof.Chips)
	s.logicalPages = int64(math.Floor(float64(rawDataPages)*(1-prof.OverProvision))) -
		reserveBlocks*int64(prof.Nand.PagesPerBlock)
	if s.logicalPages < 1 {
		return nil, fmt.Errorf("ssd: over-provisioning leaves no logical space")
	}
	if groups > 0 {
		s.parityRows = (s.logicalPages + int64(len(s.dataCh)) - 1) / int64(len(s.dataCh))
	}
	s.mapping = make([]uint64, s.logicalPages+s.parityRows*int64(groups))
	for i := range s.mapping {
		s.mapping[i] = unmapped
	}
	if prof.BufferBytes > 0 {
		s.buffer = newWriteBuffer(s, int(prof.BufferBytes/int64(prof.Nand.PageSize)))
		env.Go("ssd/flusher", s.buffer.flushLoop)
	}
	if prof.StaticWL {
		env.Go("ssd/staticwl", s.staticWLLoop)
	}
	return s, nil
}

// PageSize returns the flash page size in bytes.
func (s *SSD) PageSize() int { return s.prof.Nand.PageSize }

// Capacity returns the logical (host-visible) capacity in bytes.
func (s *SSD) Capacity() int64 { return s.logicalPages * int64(s.PageSize()) }

// placement returns the channel and lpn-independent plane cursor for a
// logical page: data pages stripe over data channels; parity rows live
// on their group's parity channel.
func (s *SSD) placement(lpn int64) int {
	if lpn >= s.logicalPages {
		g := (lpn - s.logicalPages) / s.parityRows
		return s.parityCh[g]
	}
	unit := int64(s.prof.StripePages)
	return s.dataCh[(lpn/unit)%int64(len(s.dataCh))]
}

// Read services a host read of size bytes at byte offset off. Pages
// spread across channels are fetched concurrently; the controller
// pipeline serializes per-page processing (the architectural
// bottleneck of single-FTL designs; §3.2).
func (s *SSD) Read(p *sim.Proc, off, size int64) error {
	if err := s.checkRange(off, size); err != nil {
		return err
	}
	end := p.BeginOp("ssd/read")
	defer end()
	s.stack.Submit(p)
	s.ctrl.Use(p, func() { p.Wait(s.prof.ReqProc) })
	op := p.Span()
	first := off / int64(s.PageSize())
	last := (off + size - 1) / int64(s.PageSize())
	groups := make(map[int][]int64)
	for lpn := first; lpn <= last; lpn++ {
		c := s.placement(lpn)
		groups[c] = append(groups[c], lpn)
	}
	var workers []*sim.Proc
	for c := 0; c < len(s.channels); c++ { // deterministic order
		lpns, ok := groups[c]
		if !ok {
			continue
		}
		w := s.env.Go("ssd/read", func(wp *sim.Proc) {
			wp.SetSpan(op)
			for _, lpn := range lpns {
				s.readPage(wp, lpn)
			}
		})
		workers = append(workers, w)
	}
	done := s.env.Go("ssd/readjoin", func(wp *sim.Proc) {
		for _, w := range workers {
			wp.Join(w)
		}
	})
	t := s.env.Tracer()
	xfer := t.Begin(s.env.Now(), op, "host-xfer", trace.PhaseBus)
	s.iface.ToHost(p, int(size))
	t.End(s.env.Now(), xfer)
	p.Join(done)
	s.stack.Complete(p)
	s.hostReadBytes += size
	return nil
}

// readPage fetches one page: controller processing, then flash read
// and bus transfer (skipped on buffer hits and unmapped pages). A
// page whose flash sits on a degraded channel is reconstructed from
// its parity group instead (degraded.go).
func (s *SSD) readPage(p *sim.Proc, lpn int64) {
	s.readPageMode(p, lpn, true)
}

// readPageMode is readPage with reconstruction control: peer reads
// issued by a rebuild must not themselves rebuild, or two degraded
// stripe members would recurse into each other forever. A peer that
// is also unreachable contributes nothing beyond its controller tick
// — in a timing model the XOR that covers it is free.
func (s *SSD) readPageMode(p *sim.Proc, lpn int64, rebuild bool) {
	s.ctrl.Use(p, func() { p.Wait(s.prof.ReadPageProc) })
	if s.buffer != nil && s.buffer.contains(lpn) {
		return // served from DRAM
	}
	l := s.mapping[lpn]
	if l == unmapped {
		return // never written: controller returns zeros
	}
	chIdx, plane, block, page := unpackLoc(l)
	if s.channelDegraded(chIdx) {
		if rebuild {
			s.reconstructPage(p, chIdx, lpn)
		}
		return
	}
	ch := s.channels[chIdx]
	pf := ch.planes[plane]
	if _, err := pf.plane.ReadPage(p, block, page); err != nil {
		// The mapping may have moved under concurrent GC; retry once
		// at the new location.
		if l2 := s.mapping[lpn]; l2 != l && l2 != unmapped {
			_, plane2, block2, page2 := unpackLoc(l2)
			//sdflint:allow errdrop best-effort retry at the page GC relocated; the read path models timing, and the bus transfer below is charged either way
			_, _ = ch.planes[plane2].plane.ReadPage(p, block2, page2)
		}
	}
	ch.bus.Transfer(p, s.PageSize())
}

// Write services a host write of size bytes at byte offset off.
// Partial pages incur a read-modify-write. With a DRAM buffer the
// write completes once ingested; otherwise it is written through.
func (s *SSD) Write(p *sim.Proc, off, size int64) error {
	if err := s.checkRange(off, size); err != nil {
		return err
	}
	end := p.BeginOp("ssd/write")
	defer end()
	s.stack.Submit(p)
	t := s.env.Tracer()
	xfer := t.Begin(s.env.Now(), p.Span(), "host-xfer", trace.PhaseBus)
	s.iface.ToDevice(p, int(size))
	t.End(s.env.Now(), xfer)
	pageSize := int64(s.PageSize())
	first := off / pageSize
	last := (off + size - 1) / pageSize
	for lpn := first; lpn <= last; lpn++ {
		pageStart := lpn * pageSize
		pageEnd := pageStart + pageSize
		partial := off > pageStart || off+size < pageEnd
		if partial && s.mapping[lpn] != unmapped {
			// Read-modify-write: fetch the old page content first.
			s.rmwReads++
			s.readPage(p, lpn)
		}
		if s.buffer != nil {
			s.front.Use(p, func() { p.Wait(s.prof.IngestProc) })
			s.buffer.insert(p, lpn)
		} else {
			s.ctrl.Use(p, func() { p.Wait(s.prof.WritePageProc) })
			s.flashWrite(p, lpn)
		}
		s.hostPages++
	}
	s.stack.Complete(p)
	s.hostWriteBytes += size
	return nil
}

// Trim invalidates the page range, releasing it for garbage
// collection without writing.
func (s *SSD) Trim(p *sim.Proc, off, size int64) error {
	if err := s.checkRange(off, size); err != nil {
		return err
	}
	pageSize := int64(s.PageSize())
	first := off / pageSize
	last := (off + size - 1) / pageSize
	s.ctrl.Use(p, func() { p.Wait(s.prof.ReqProc) })
	for lpn := first; lpn <= last; lpn++ {
		s.invalidate(lpn)
	}
	return nil
}

func (s *SSD) checkRange(off, size int64) error {
	if off < 0 || size <= 0 {
		return fmt.Errorf("ssd: bad range off=%d size=%d", off, size)
	}
	if off+size > s.Capacity() {
		return fmt.Errorf("%w: off=%d size=%d capacity=%d", ErrDeviceFull, off, size, s.Capacity())
	}
	return nil
}

// invalidate drops the flash mapping of lpn, if any.
func (s *SSD) invalidate(lpn int64) {
	l := s.mapping[lpn]
	if l == unmapped {
		return
	}
	ch, plane, block, _ := unpackLoc(l)
	pf := s.channels[ch].planes[plane]
	pf.valid[block]--
	// The reverse entry is left stale; GC validates against mapping.
	s.mapping[lpn] = unmapped
}

// flashWrite programs one logical page to flash through the striped
// placement, then accounts parity traffic. Placement onto a degraded
// channel is redirected to a surviving group member; parity is still
// accounted against the original group.
func (s *SSD) flashWrite(p *sim.Proc, lpn int64) {
	c := s.placement(lpn)
	group := c
	if s.channelDegraded(c) {
		r := s.redirectChannel(c)
		if r < 0 {
			return // every channel is down: the write is unserviceable
		}
		c = r
	}
	ch := s.channels[c]
	pf := ch.planes[ch.next%len(ch.planes)]
	ch.next++
	pf.hostProgram(p, lpn)
	s.parityTick(p, group)
}

// parityTick emits one parity-page write per ParityRatio data pages
// written into a group (RAID4-style dedicated parity channel; §2.2).
func (s *SSD) parityTick(p *sim.Proc, c int) {
	if len(s.parityCh) == 0 {
		return
	}
	g := c / (s.prof.ParityRatio + 1)
	if g >= len(s.parityAcc) {
		g = len(s.parityAcc) - 1
	}
	s.parityAcc[g]++
	if s.parityAcc[g] < s.prof.ParityRatio {
		return
	}
	s.parityAcc[g] = 0
	row := s.logicalPages + int64(g)*s.parityRows + s.parityCur[g]
	s.parityCur[g] = (s.parityCur[g] + 1) % s.parityRows
	s.ctrl.Use(p, func() { p.Wait(s.prof.WritePageProc) })
	pc := s.placement(row)
	if s.channelDegraded(pc) {
		pc = s.redirectChannel(pc)
		if pc < 0 {
			return
		}
	}
	ch := s.channels[pc]
	pf := ch.planes[ch.next%len(ch.planes)]
	ch.next++
	pf.hostProgram(p, row)
	s.parityPages++
}

// hostProgram appends one page for lpn into the plane's host-open
// block: bus transfer, program, mapping update.
func (pf *planeFTL) hostProgram(p *sim.Proc, lpn int64) {
	pf.writeMu.Acquire(p)
	defer pf.writeMu.Release()
	block, page := pf.allocHost(p)
	pf.ssd.channels[pf.ch].bus.Transfer(p, pf.ssd.PageSize())
	if err := pf.plane.Program(p, block, page, nil); err != nil {
		// Program failure: retire the block and retry once elsewhere.
		pf.plane.MarkBad(block)
		pf.hostOpen = -1
		block, page = pf.allocHost(p)
		if err := pf.plane.Program(p, block, page, nil); err != nil {
			panic(fmt.Sprintf("ssd: program retry failed: %v", err))
		}
	}
	pf.ssd.invalidate(lpn)
	pf.rev[block][page] = lpn
	pf.valid[block]++
	pf.ssd.mapping[lpn] = packLoc(pf.ch, pf.pi, block, page)
}

// allocHost returns the next (block, page) slot for host writes,
// opening (and erasing) a fresh block when needed and stalling while
// the free pool is at the GC reserve.
func (pf *planeFTL) allocHost(p *sim.Proc) (block, page int) {
	prof := &pf.ssd.prof
	for {
		if pf.hostOpen >= 0 {
			wp := pf.plane.WritePtr(pf.hostOpen)
			if wp >= 0 && wp < prof.Nand.PagesPerBlock {
				return pf.hostOpen, wp
			}
			pf.hostOpen = -1
		}
		if len(pf.free) <= gcReserve {
			// The stall behind garbage collection — the dominant term
			// of the Gen3's worst-case write latency (Figure 8).
			env := pf.ssd.env
			span := env.Tracer().Begin(env.Now(), p.Span(), "gc-stall", trace.PhaseQueue)
			for len(pf.free) <= gcReserve {
				pf.kickGC()
				p.Await(&pf.space)
			}
			env.Tracer().End(env.Now(), span)
		}
		b := pf.popFree()
		if len(pf.free) <= gcLowWater {
			pf.kickGC()
		}
		if pf.eraseFresh(p, b) {
			pf.hostOpen = b
		}
	}
}

// eraseFresh erases a block popped from the free pool, retiring it on
// wear-out. Reports whether the block is usable.
func (pf *planeFTL) eraseFresh(p *sim.Proc, b int) bool {
	if err := pf.plane.Erase(p, b); err != nil {
		return false // worn out or bad: drop from circulation
	}
	row := pf.rev[b]
	for i := range row {
		row[i] = revInvalid
	}
	pf.valid[b] = 0
	return true
}

func (pf *planeFTL) popFree() int {
	b := pf.free[len(pf.free)-1]
	pf.free = pf.free[:len(pf.free)-1]
	pf.pooled[b] = false
	return b
}

// pushFree returns a block to the free pool.
func (pf *planeFTL) pushFree(b int) {
	if pf.pooled[b] {
		panic("ssd: double free of physical block")
	}
	pf.free = append(pf.free, b)
	pf.pooled[b] = true
}

func (pf *planeFTL) kickGC() {
	pf.gcKick.Fire()
}

func (pf *planeFTL) signalSpace() {
	pf.space.Fire()
	pf.space = sim.Signal{}
}

// gcLoop is the plane's background garbage collector: when the free
// pool runs low it greedily picks the fully-written block with the
// fewest valid pages, moves those pages to the GC-open block, and
// reclaims the victim.
func (pf *planeFTL) gcLoop(p *sim.Proc) {
	for {
		if !pf.gcKick.Fired() {
			p.Await(&pf.gcKick)
		}
		pf.gcKick = sim.Signal{}
		for len(pf.free) <= gcLowWater {
			if pf.ssd.channelDegraded(pf.ch) {
				break // dead channel: its flash is unreachable, GC parks
			}
			pf.gcMu.Acquire(p)
			victim := pf.pickVictim()
			if victim < 0 {
				pf.gcMu.Release()
				break
			}
			pf.ssd.gcRuns++
			pf.moveValid(p, victim)
			pf.pushFree(victim)
			pf.signalSpace()
			pf.gcMu.Release()
		}
	}
}

// pickVictim returns the fully-written, non-open block with the
// fewest valid pages, or -1 if no block would yield free space.
func (pf *planeFTL) pickVictim() int {
	best := -1
	bestValid := int32(pf.ssd.prof.Nand.PagesPerBlock)
	for b := 0; b < pf.plane.Blocks(); b++ {
		if b == pf.hostOpen || b == pf.gcOpen || pf.pooled[b] || pf.plane.Bad(b) {
			continue
		}
		if pf.plane.WritePtr(b) != pf.ssd.prof.Nand.PagesPerBlock {
			continue
		}
		if pf.valid[b] < bestValid {
			bestValid = pf.valid[b]
			best = b
		}
	}
	if best >= 0 && bestValid >= int32(pf.ssd.prof.Nand.PagesPerBlock) {
		return -1 // nothing reclaimable
	}
	return best
}

// moveValid relocates every still-valid page of the victim block into
// the GC-open block. Each move costs a flash read, a bus round trip,
// controller processing, and a program — this is the write
// amplification that over-provisioning exists to bound.
func (pf *planeFTL) moveValid(p *sim.Proc, victim int) {
	s := pf.ssd
	prof := &s.prof
	for pg := 0; pg < prof.Nand.PagesPerBlock; pg++ {
		lpn := pf.rev[victim][pg]
		if lpn < 0 {
			continue
		}
		if s.mapping[lpn] != packLoc(pf.ch, pf.pi, victim, pg) {
			continue // stale reverse entry
		}
		if _, err := pf.plane.ReadPage(p, victim, pg); err != nil {
			continue
		}
		bus := s.channels[pf.ch].bus
		bus.Transfer(p, s.PageSize())
		s.ctrl.Use(p, func() { p.Wait(prof.WritePageProc) })
		block, page := pf.allocGC(p)
		bus.Transfer(p, s.PageSize())
		if err := pf.plane.Program(p, block, page, nil); err != nil {
			pf.plane.MarkBad(block)
			pf.gcOpen = -1
			continue
		}
		pf.valid[victim]--
		pf.rev[victim][pg] = revInvalid
		pf.rev[block][page] = lpn
		pf.valid[block]++
		s.mapping[lpn] = packLoc(pf.ch, pf.pi, block, page)
		s.gcMoved++
	}
}

// allocGC returns the next slot in the GC-open block; GC may dip into
// the reserve that host writes cannot touch.
func (pf *planeFTL) allocGC(p *sim.Proc) (block, page int) {
	prof := &pf.ssd.prof
	for {
		if pf.gcOpen >= 0 {
			wp := pf.plane.WritePtr(pf.gcOpen)
			if wp >= 0 && wp < prof.Nand.PagesPerBlock {
				return pf.gcOpen, wp
			}
			pf.gcOpen = -1
		}
		if len(pf.free) == 0 {
			panic("ssd: GC starved of free blocks (reserve misconfigured)")
		}
		b := pf.popFree()
		if pf.eraseFresh(p, b) {
			pf.gcOpen = b
		}
	}
}

// Stats summarizes device activity.
type Stats struct {
	HostReadBytes  int64
	HostWriteBytes int64
	HostPages      int64 // pages written by the host
	GCMovedPages   int64
	RebuiltPages   int64 // pages served by degraded-parity reconstruction
	ParityPages    int64
	RMWReads       int64
	GCRuns         int64
	StaticWLMoves  int64
	FlashReads     int64
	FlashPrograms  int64
	FlashErases    int64
}

// WriteAmplification is total flash programs per host page written.
func (st Stats) WriteAmplification() float64 {
	if st.HostPages == 0 {
		return 0
	}
	return float64(st.FlashPrograms) / float64(st.HostPages)
}

// Wear returns the minimum and maximum per-block erase counts across
// all planes (bad blocks excluded).
func (s *SSD) Wear() (min, max int) {
	min = 1 << 30
	for _, ch := range s.channels {
		for _, pf := range ch.planes {
			for b := 0; b < pf.plane.Blocks(); b++ {
				if pf.plane.Bad(b) {
					continue
				}
				ec := pf.plane.EraseCount(b)
				if ec < min {
					min = ec
				}
				if ec > max {
					max = ec
				}
			}
		}
	}
	if min == 1<<30 {
		min = 0
	}
	return min, max
}

// RegisterMetrics exports the SSD's controller counters and degraded-
// parity state against r: host traffic, GC and parity activity, pages
// served by stripe reconstruction, write-buffer depth, and how many
// channels are currently running degraded. Callbacks read plain
// fields only — park-free, per the registry's callback contract.
func (s *SSD) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	s.iface.RegisterMetrics(r, labels...)
	s.stack.RegisterMetrics(r, labels...)
	r.CounterFunc("ssd_host_read_bytes_total", func() int64 { return s.hostReadBytes }, labels...)
	r.CounterFunc("ssd_host_write_bytes_total", func() int64 { return s.hostWriteBytes }, labels...)
	r.CounterFunc("ssd_gc_moved_pages_total", func() int64 { return s.gcMoved }, labels...)
	r.CounterFunc("ssd_gc_runs_total", func() int64 { return s.gcRuns }, labels...)
	r.CounterFunc("ssd_parity_pages_total", func() int64 { return s.parityPages }, labels...)
	r.CounterFunc("ssd_rmw_reads_total", func() int64 { return s.rmwReads }, labels...)
	r.CounterFunc("ssd_rebuilt_pages_total", func() int64 { return s.rebuiltPages }, labels...)
	r.GaugeFunc("ssd_buffer_depth_pages", func() float64 { return float64(s.buffer.depth()) }, labels...)
	r.GaugeFunc("ssd_degraded_channels", func() float64 { return float64(s.DegradedChannels()) }, labels...)
}

// Stats returns a snapshot of device counters.
func (s *SSD) Stats() Stats {
	st := Stats{
		HostReadBytes:  s.hostReadBytes,
		HostWriteBytes: s.hostWriteBytes,
		HostPages:      s.hostPages,
		GCMovedPages:   s.gcMoved,
		RebuiltPages:   s.rebuiltPages,
		ParityPages:    s.parityPages,
		RMWReads:       s.rmwReads,
		GCRuns:         s.gcRuns,
		StaticWLMoves:  s.wlMoves,
	}
	for _, c := range s.chips {
		r, w, e := c.Counters()
		st.FlashReads += r
		st.FlashPrograms += w
		st.FlashErases += e
	}
	return st
}
