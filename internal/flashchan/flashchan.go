// Package flashchan models one SDF flash channel: the asynchronous
// 40 MHz channel bus, its two NAND chips (four planes), and the
// dedicated channel engine that the SDF card implements per channel in
// its Spartan-6 FPGAs (§2.1): block-level address mapping (LA2PA),
// dynamic wear leveling (DWL), bad block management (BBM), and the
// BCH codec protecting each chip.
//
// The channel exposes the paper's asymmetric interface: reads in 8 KB
// pages, writes of one full 8 MB logical block (2 MB erase block per
// plane, striped across the channel's four planes), and an explicit
// erase of a logical block. There is no garbage collection and no
// over-provisioning: every logical block maps to exactly one physical
// block per plane, with only a small spare pool for bad-block
// replacement.
package flashchan

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"sdf/internal/bch"
	"sdf/internal/nand"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Interface-contract errors.
var (
	ErrNotErased     = errors.New("flashchan: logical block must be erased before writing")
	ErrBadAlignment  = errors.New("flashchan: offset and size must be page aligned")
	ErrOutOfSpace    = errors.New("flashchan: no healthy physical blocks left")
	ErrUncorrectable = errors.New("flashchan: uncorrectable ECC error")
	ErrBadAddress    = errors.New("flashchan: address out of range")
	// ErrChannelDead is returned by every command while the channel
	// engine is offline (injected fault or controller death). It is a
	// fail-fast error: no virtual time is consumed, so upper layers can
	// quarantine the channel and redirect traffic immediately.
	ErrChannelDead = errors.New("flashchan: channel engine offline")
)

// ErrPowerLoss resolves commands that were in flight when the channel
// lost power (re-exported from the media model so upper layers need
// not import nand).
var ErrPowerLoss = nand.ErrPowerLoss

// Config describes one channel.
type Config struct {
	Chips int         // NAND chips on the channel (2 on the SDF card)
	Nand  nand.Params // per-chip geometry and timing

	// BusRate is the channel data rate in bytes/s (40 MB/s for the
	// async 40 MHz 8-bit bus). BusOverhead is the command/address
	// cycle cost per page transaction.
	BusRate     float64
	BusOverhead time.Duration

	// SparePerPlane physical blocks are withheld from the logical
	// space as bad-block replacements (~0.8% with the default 16).
	SparePerPlane int

	// PrioritizeReads admits queued reads ahead of queued writes and
	// erases on the channel engine — the "on-demand reads take
	// priority over writes and erasures" scheduling the paper plans
	// as future work (§2.4). Non-preemptive: an in-service command
	// completes first.
	PrioritizeReads bool

	// ECC enables the real BCH codec (ECCSector, ECCM, ECCT) on the
	// data path; it requires Nand.RetainData.
	ECC bool

	// VerifyCRC checks each page read against the payload CRC the
	// write path stored in the page's out-of-band area, after ECC
	// correction. It catches corruption the BCH code miscorrects and
	// is the crash harness's "never surface corrupt data" tripwire.
	VerifyCRC bool

	// CheckpointEvery enables checkpointed FTL metadata: every
	// CheckpointEvery successful write commands the engine persists
	// its block map and sequence watermark to dedicated checkpoint
	// blocks, so mount-time recovery scans only post-checkpoint
	// activity (DESIGN.md §14). Zero disables checkpointing entirely:
	// no blocks are reserved and recovery is the full scan. Enabling
	// it requires SparePerPlane > 2 (the two checkpoint slots come
	// out of plane 0's spare headroom).
	CheckpointEvery int

	Seed int64
}

// DefaultConfig is one channel of the SDF card (Table 3): two 8 GB
// 25 nm MLC chips, 16 GB per channel, 40 MB/s bus.
func DefaultConfig() Config {
	return Config{
		Chips:         2,
		Nand:          nand.MLC25nm(),
		BusRate:       40e6,
		BusOverhead:   10 * time.Microsecond,
		SparePerPlane: 16,
	}
}

// The channel's BCH code: t = 8 bit errors corrected per 512 B sector
// over GF(2^13), 104 parity bits per sector.
const (
	ECCSector = 512
	ECCM      = 13
	ECCT      = 8
)

// planeState is the channel engine's per-plane FTL state.
type planeState struct {
	plane   *nand.Plane
	chip    int
	free    wearList // unmapped physical blocks, least-worn last
	mapping []int    // logical block -> physical block, or unmapped
}

// unmapped marks a logical block with no physical block on a plane.
const unmapped = -1

// lookup returns the physical block lbn maps to on this plane and
// whether it is mapped; an out-of-range lbn is not.
func (ps *planeState) lookup(lbn int) (int, bool) {
	if uint(lbn) >= uint(len(ps.mapping)) {
		return unmapped, false
	}
	phys := ps.mapping[lbn]
	return phys, phys != unmapped
}

// wearList keeps a plane's free blocks sorted by descending (erase
// count, index), a total order, so the least-worn block pops off the end.
type wearList struct {
	plane *nand.Plane
	idx   []int
}

func (w *wearList) Len() int { return len(w.idx) }

func (w *wearList) moreWorn(a, b int) int {
	return cmp.Or(cmp.Compare(w.plane.EraseCount(b), w.plane.EraseCount(a)), cmp.Compare(b, a))
}

func (w *wearList) init() { slices.SortFunc(w.idx, w.moreWorn) }

func (w *wearList) push(b int) {
	i, _ := slices.BinarySearchFunc(w.idx, b, w.moreWorn)
	w.idx = slices.Insert(w.idx, i, b)
}

func (w *wearList) pop() int {
	b := w.idx[len(w.idx)-1]
	w.idx = w.idx[:len(w.idx)-1]
	return b
}

// Channel is one exposed SDF channel with its engine.
type Channel struct {
	cfg    Config
	env    *sim.Env
	bus    *sim.Link
	chips  []*nand.Chip
	planes []planeState
	mu     *sim.Resource // the engine serves one command at a time
	code   *bch.Code
	parity map[parityKey][][]byte
	dead   bool // engine offline (injected fault); commands fail fast
	// nextSeq is the per-channel write-command sequence number stamped
	// into every page's out-of-band area. Recovery re-derives it as
	// one past the highest sequence found on the media.
	nextSeq uint64
	// meta mirrors the identity stamped on each written logical block
	// (FTL DRAM state), so checkpoints serialize without re-reading
	// the media. Rebuilt by Recover.
	meta map[int]blockMeta
	// Checkpoint engine state (checkpoint.go): next generation to
	// write, next slot to rewrite, and write commands since the last
	// successful checkpoint.
	cpSeq         uint64
	cpSlot        int
	writesSinceCp int
	lastCp        time.Duration // virtual instant of the last successful checkpoint (or mount)

	bytesRead    int64
	bytesWritten int64
	blocksErased int64
	eccCorrected int64
	eccFailures  int64
	deadRejects  int64 // commands refused while offline
	checkpoints  int64 // checkpoints written and verified
	cpFailures   int64 // checkpoint attempts that failed
	walked       int   // pages ReadAt stepped one at a time, not laid out in closed form

	wr  blockWrite  // the block write in service (program.go)
	oob *oobPool    // its recycled out-of-band records (recovery.go)
	cut *sim.Signal // fired by PowerOff: wakes the block write it cut
	er  blockErase  // the erase in service
}

type parityKey struct {
	plane, block, page int
}

// newChannel checks cfg and builds the channel that New and Mount then
// give chips: no planes, no mapping.
func newChannel(env *sim.Env, cfg Config) (*Channel, error) {
	switch {
	case cfg.Chips < 1:
		return nil, fmt.Errorf("flashchan: need at least one chip")
	case cfg.CheckpointEvery > 0 && cfg.SparePerPlane <= cpSlots:
		return nil, fmt.Errorf("flashchan: checkpointing needs SparePerPlane > %d", cpSlots)
	case cfg.SparePerPlane < 0 || cfg.SparePerPlane >= cfg.Nand.BlocksPerPlane:
		return nil, fmt.Errorf("flashchan: SparePerPlane %d leaves no logical blocks of %d per plane",
			cfg.SparePerPlane, cfg.Nand.BlocksPerPlane)
	case cfg.ECC && !cfg.Nand.RetainData:
		return nil, fmt.Errorf("flashchan: ECC requires RetainData")
	}
	ch := &Channel{
		cfg:     cfg,
		env:     env,
		bus:     sim.NewLink(env, cfg.BusRate, cfg.BusOverhead),
		mu:      sim.NewResource(env, 1),
		nextSeq: 1, // Recover re-derives it from mounted media
		meta:    make(map[int]blockMeta),
		cpSeq:   1,
		oob:     new(oobPool),
		cut:     new(sim.Signal),
	}
	env.Handle(&ch.er.step, ch.stepErase)
	ch.SetLabel("chan")
	if cfg.ECC {
		code, err := bch.New(ECCM, ECCT, ECCSector)
		if err != nil {
			return nil, err
		}
		ch.code = code
	}
	return ch, nil
}

// addChip appends a chip's planes to the channel, unmapped and with
// empty free pools, and the chip's share of an erase.
func (ch *Channel) addChip(chip *nand.Chip) {
	ch.er.chips = append(ch.er.chips, eraseChip{first: len(ch.planes), end: len(ch.planes) + chip.Planes()})
	for pl := 0; pl < chip.Planes(); pl++ {
		mapping := make([]int, ch.LogicalBlocks())
		for lbn := range mapping {
			mapping[lbn] = unmapped
		}
		ch.planes = append(ch.planes, planeState{
			plane:   chip.Plane(pl),
			chip:    len(ch.chips),
			mapping: mapping,
		})
		ps := &ch.planes[len(ch.planes)-1]
		ps.free.plane = ps.plane
	}
	ch.chips = append(ch.chips, chip)
}

// New builds a channel on env.
func New(env *sim.Env, cfg Config) (*Channel, error) {
	ch, err := newChannel(env, cfg)
	if err != nil {
		return nil, err
	}
	ch.lastCp = env.Now()
	for i := 0; i < cfg.Chips; i++ {
		np := cfg.Nand
		np.Seed = cfg.Seed*1000 + int64(i)
		ch.addChip(nand.New(env, np))
	}
	for pi := range ch.planes {
		ps := &ch.planes[pi]
		for b := 0; b < ps.plane.Blocks(); b++ {
			if !ps.plane.Bad(b) && !ch.cpHome(pi, b) {
				ps.free.idx = append(ps.free.idx, b)
			}
		}
		ps.free.init()
	}
	if ch.code != nil {
		ch.parity = make(map[parityKey][][]byte)
	}
	return ch, nil
}

// transferAt claims the bus's next FIFO slot for n bytes that are ready
// to ship at instant at (now or later) and returns the instant the
// wires go quiet, without blocking or parking anything: the channel bus
// is pure timed occupancy. Callers that must observe completion wait
// with WaitUntil. The span brackets wire occupancy only (command
// cycles + data), not the time the transfer sat queued behind other
// pages, and is emitted eagerly with the slot's computed timestamps.
func (ch *Channel) transferAt(at time.Duration, n int, parent trace.SpanID) time.Duration {
	start, end := ch.bus.ReserveAt(at, n)
	t := ch.env.Tracer()
	span := t.Begin(start, parent, "chan/bus", trace.PhaseBus)
	t.End(end, span)
	return end
}

// Geometry accessors.

// PageSize returns the read unit in bytes (8 KB).
func (ch *Channel) PageSize() int { return ch.cfg.Nand.PageSize }

// BlockSize returns the write/erase unit in bytes: one erase block per
// plane (8 MB on the SDF card).
func (ch *Channel) BlockSize() int {
	return ch.cfg.Nand.BlockBytes() * len(ch.planes)
}

// LogicalBlocks returns the number of addressable logical blocks; all
// but the spare pool are exposed (the paper's 99% usable capacity).
func (ch *Channel) LogicalBlocks() int {
	return ch.cfg.Nand.BlocksPerPlane - ch.cfg.SparePerPlane
}

// Capacity returns the exposed capacity in bytes.
func (ch *Channel) Capacity() int64 {
	return int64(ch.LogicalBlocks()) * int64(ch.BlockSize())
}

// RawCapacity returns the raw flash capacity in bytes.
func (ch *Channel) RawCapacity() int64 {
	return ch.cfg.Nand.ChipBytes() * int64(len(ch.chips))
}

// Idle reports whether the channel engine has no command in progress
// or queued. The block layer uses it to schedule erases into idle
// periods (§2.3).
func (ch *Channel) Idle() bool { return ch.mu.Idle() }

// QueueDepth returns the number of commands waiting for the engine —
// the quantity the utilization sampler records per channel.
func (ch *Channel) QueueDepth() int { return ch.mu.Waiting() }

// SetLabel names the channel's bus and engine in trace output
// (e.g. "chan3"). Devices with many channels call it at build time so
// kernel-level events distinguish channels.
func (ch *Channel) SetLabel(label string) {
	ch.bus.SetName(label + "/bus")
	ch.mu.SetName(label + "/engine")
}

// acquire admits p to the channel engine, recording the wait as a
// queue-phase span.
func (ch *Channel) acquire(p *sim.Proc, prio int) {
	t := ch.env.Tracer()
	span := t.Begin(ch.env.Now(), p.Span(), "chan/queue", trace.PhaseQueue)
	ch.mu.AcquirePrio(p, prio)
	t.End(ch.env.Now(), span)
}

// Counters returns cumulative traffic statistics.
func (ch *Channel) Counters() (read, written, erased int64) {
	return ch.bytesRead, ch.bytesWritten, ch.blocksErased
}

// ECCStats returns (corrected bit errors, uncorrectable sector reads).
func (ch *Channel) ECCStats() (corrected, failures int64) {
	return ch.eccCorrected, ch.eccFailures
}

// Fault-injection hooks. These are the channel-level failure modes a
// fault plan can fire (DESIGN.md §9); all of them are deterministic
// state flips executed at scheduled virtual instants.

// Kill takes the channel engine offline: every subsequent command
// returns ErrChannelDead without consuming virtual time, modelling a
// dead channel controller or a severed flash bus.
func (ch *Channel) Kill() { ch.dead = true }

// Revive brings a killed channel back online. Mapped data survives
// (the failure was in the engine, not the cells), so reads of blocks
// written before the kill succeed again.
func (ch *Channel) Revive() { ch.dead = false }

// PowerOff cuts power to the channel: the engine goes offline like
// Kill (fail-fast ErrChannelDead, no virtual time) and every chip
// records the cut instant, so in-flight programs and erases resolve
// as torn pages and partially-erased blocks in the media. There is no
// Revive from a power loss; recovery is Persistent + Mount + Recover
// in a fresh environment.
func (ch *Channel) PowerOff() {
	ch.dead = true
	for _, chip := range ch.chips {
		chip.PowerOff()
	}
	// A block write in flight resolves against the cut now, and its
	// command wakes to collect the verdict.
	ch.settleWrite()
	ch.cut.Fire()
}

// Alive reports whether the engine is serving commands.
func (ch *Channel) Alive() bool { return !ch.dead }

// DeadRejects returns how many commands were refused while offline.
func (ch *Channel) DeadRejects() int64 { return ch.deadRejects }

// Hang stalls the channel engine for d of virtual time: a process
// seizes the engine at read priority (overtaking queued writes) and
// holds it, so every command queued behind the hang waits it out.
// Non-preemptive, like a firmware-level lockup that recovers.
func (ch *Channel) Hang(d time.Duration) {
	ch.env.Go("flashchan/hang", func(p *sim.Proc) {
		t := ch.env.Tracer()
		span := t.Begin(ch.env.Now(), 0, "chan/hang", trace.PhaseFault)
		ch.mu.AcquirePrio(p, ch.readPrio())
		p.Wait(d)
		ch.mu.Release()
		t.End(ch.env.Now(), span)
	})
}

// GrowBadBlocks retires up to n healthy blocks from the free pools,
// round-robin across planes — grown defects appearing in the field.
// It returns how many blocks were actually retired (bounded by the
// free pool). Mapped blocks are untouched: grown defects surface on
// the next erase cycle, not under live data.
func (ch *Channel) GrowBadBlocks(n int) int {
	marked := 0
	for marked < n {
		progressed := false
		for i := range ch.planes {
			if marked >= n {
				break
			}
			ps := &ch.planes[i]
			if ps.free.Len() == 0 {
				continue
			}
			phys := ps.free.pop()
			ps.plane.MarkBad(phys)
			marked++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return marked
}

// SetBERBoost injects an extra raw bit error rate on every chip of
// the channel (an uncorrectable-ECC burst when pushed past the BCH
// correction budget); 0 ends the burst.
func (ch *Channel) SetBERBoost(ber float64) {
	for _, chip := range ch.chips {
		chip.SetBERBoost(ber)
	}
}

// checkAlive fails fast while the engine is offline.
func (ch *Channel) checkAlive() error {
	if ch.dead {
		ch.deadRejects++
		return ErrChannelDead
	}
	return nil
}

// readPrio and writePrio order channel admission: with
// PrioritizeReads, reads (0) overtake writes and erases (1).
func (ch *Channel) readPrio() int { return 0 }

func (ch *Channel) writePrio() int {
	if ch.cfg.PrioritizeReads {
		return 1
	}
	return 0
}

// stripeBytes is the portion of a logical block on one plane.
func (ch *Channel) stripeBytes() int { return ch.cfg.Nand.BlockBytes() }

func (ch *Channel) checkLBN(lbn int) error {
	if lbn < 0 || lbn >= ch.LogicalBlocks() {
		return fmt.Errorf("%w: logical block %d of %d", ErrBadAddress, lbn, ch.LogicalBlocks())
	}
	return nil
}

// Erase prepares a logical block for writing. The engine recycles the
// previously mapped physical blocks into the free pool and maps the
// least-worn free block on each plane (dynamic wear leveling),
// retiring any block that fails to erase (bad block management).
// Erases proceed in parallel across chips but serially within a chip.
func (ch *Channel) Erase(p *sim.Proc, lbn int) error {
	if err := ch.checkLBN(lbn); err != nil {
		return err
	}
	if err := ch.checkAlive(); err != nil {
		return err
	}
	ch.acquire(p, ch.writePrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil { // killed while queued
		return err
	}
	return ch.eraseLocked(p, lbn)
}

// blockErase is the erase command in service: where each chip is, and
// the callback handle that steps them. It lives in the Channel (the
// engine serves one command at a time) and is reused, so an erase
// allocates nothing in steady state.
type blockErase struct {
	lbn    int
	parent trace.SpanID
	chips  []eraseChip // one per chip, built when the chip is added
	step   sim.Proc    // callback handle running stepErase
	done   sim.Signal  // fired when every chip is through
}

// eraseChip is one chip's share of an erase: it erases the chip's
// planes, ch.planes[first:end], one after another; plane pi is the one
// at hand, and while busy its block phys is in a pulse ending at until.
type eraseChip struct {
	first, end, pi int
	phys           int
	until          time.Duration
	busy           bool
	span           trace.SpanID
	err            error // the first of its planes' failures
}

// eraseLocked recycles lbn's blocks and maps the least-worn free block
// of each plane in their place, retiring any block that wears out on
// the way. Chips erase in parallel and the planes of a chip one after
// another (one erase pulse per die at a time); stepErase runs the pulses
// and the command parks once, until every chip is through.
func (ch *Channel) eraseLocked(p *sim.Proc, lbn int) error {
	// Recycle old mappings first so they are candidates again.
	for i := range ch.planes {
		ps := &ch.planes[i]
		if old, ok := ps.lookup(lbn); ok {
			ps.free.push(old)
			ps.mapping[lbn] = unmapped
		}
	}
	delete(ch.meta, lbn) // the block's previous identity is gone
	// Spare-exhaustion precheck: a plane with an empty free pool can
	// never complete this command, so fail before burning erase cycles
	// (and endurance) on the planes that still have spares.
	for i := range ch.planes {
		if ch.planes[i].free.Len() == 0 {
			return fmt.Errorf("%w: plane %d spare pool exhausted", ErrOutOfSpace, i)
		}
	}
	er := &ch.er
	er.lbn, er.parent, er.done = lbn, p.Span(), sim.Signal{}
	for i := range er.chips {
		c := &er.chips[i]
		c.pi, c.err = c.first, nil
	}
	ch.env.Wake(&er.step, 0)
	p.Await(&er.done)
	for _, c := range er.chips {
		if c.err != nil {
			ch.unwindErase(lbn)
			return c.err
		}
	}
	ch.blocksErased++
	return nil
}

// stepErase runs when an erase is admitted and then whenever a pulse of
// it ends. Each chip in turn settles the pulse it finished
// (nand.Plane.SettleErase, which rules on a power cut during it) and
// begins its next, on the plane's least-worn free block. These are the
// slots a process per chip would be dispatched in (its start, each
// Occupy's resume, the join's wake), so spans, the media a sampler
// reads mid-command and the order of every other event are the process
// form's (DESIGN.md §10). A chip the power left stops at the pulse it
// was in; its remaining planes fail their admission check.
func (ch *Channel) stepErase() {
	er, t := &ch.er, ch.env.Tracer()
	now, wake := ch.env.Now(), time.Duration(math.MaxInt64)
	for i := range er.chips {
		c := &er.chips[i]
		if c.busy && c.until <= now {
			c.busy = false
			t.End(now, c.span)
			ps := &ch.planes[c.pi]
			switch err := ps.plane.SettleErase(c.phys, c.until-ch.cfg.Nand.TErase); {
			case err == nil:
				ps.mapping[er.lbn] = c.phys
				if ch.parity != nil {
					for pg := 0; pg < ch.cfg.Nand.PagesPerBlock; pg++ {
						delete(ch.parity, parityKey{c.pi, c.phys, pg})
					}
				}
				c.pi++
			case errors.Is(err, nand.ErrWornOut): // retired; the plane's next block
			default:
				c.fail(err)
				c.pi++
			}
		}
		for !c.busy && c.pi < c.end {
			ps := &ch.planes[c.pi]
			if ps.free.Len() == 0 {
				c.fail(fmt.Errorf("%w: plane %d", ErrOutOfSpace, c.pi))
				c.pi++
				continue
			}
			c.phys = ps.free.pop()
			switch err := ps.plane.Erasable(c.phys); {
			case errors.Is(err, nand.ErrBadBlock): // retired already; the next
			case err != nil:
				c.fail(err)
				c.pi++
			default:
				c.span = t.Begin(now, er.parent, "nand/erase", trace.PhaseFlash)
				_, c.until = ps.plane.Timeline().Reserve(ch.cfg.Nand.TErase)
				c.busy = true
			}
		}
		if c.busy {
			wake = min(wake, c.until)
		}
	}
	if wake == math.MaxInt64 {
		er.done.Fire()
		return
	}
	ch.env.Wake(&er.step, wake-now)
}

func (c *eraseChip) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// unwindErase reverts a partially completed erase command: planes
// that already allocated and erased a block for lbn return it to the
// free pool and the logical block ends fully unmapped. Without this,
// a spare-exhaustion failure left a half-erased block whose next
// write failed with a misleading ErrNotErased, and every retry burned
// endurance re-erasing the healthy planes.
func (ch *Channel) unwindErase(lbn int) {
	for i := range ch.planes {
		ps := &ch.planes[i]
		if phys, ok := ps.lookup(lbn); ok {
			ps.free.push(phys)
			ps.mapping[lbn] = unmapped
		}
	}
}

// Write programs one full logical block. The block must have been
// erased (the software's responsibility under the SDF contract — the
// device keeps no over-provisioned space and never copies data).
// data must be exactly BlockSize bytes, or nil in timing-only mode.
// The four planes program in parallel, fed round-robin over the bus,
// so throughput is program-limited (~23 MB/s per channel).
func (ch *Channel) Write(p *sim.Proc, lbn int, data []byte) error {
	return ch.write(p, lbn, data, nil, false)
}

// WriteTagged is Write with the caller's 128-bit write ID stamped
// into every page's out-of-band area (§2.4's write-ID hashing). The
// mount-time recovery scan returns tagged blocks with their IDs, so
// the block layer can rebuild its ID-to-block map after power loss.
func (ch *Channel) WriteTagged(p *sim.Proc, lbn int, data []byte, id WriteID) error {
	return ch.write(p, lbn, data, &id, false)
}

// write is the block-write command, after an erase of the block in the
// same command when erase is set.
func (ch *Channel) write(p *sim.Proc, lbn int, data []byte, tag *WriteID, erase bool) error {
	if err := ch.checkLBN(lbn); err != nil {
		return err
	}
	if data != nil && len(data) != ch.BlockSize() {
		return fmt.Errorf("flashchan: write payload %d bytes, want %d", len(data), ch.BlockSize())
	}
	if err := ch.checkAlive(); err != nil {
		return err
	}
	ch.acquire(p, ch.writePrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil { // killed while queued
		return err
	}
	if erase {
		if err := ch.eraseLocked(p, lbn); err != nil {
			return err
		}
	}
	if err := ch.writeLocked(p, lbn, data, tag); err != nil {
		return err
	}
	ch.maybeCheckpoint(p)
	return nil
}

func (ch *Channel) writeLocked(p *sim.Proc, lbn int, data []byte, tag *WriteID) error {
	for i := range ch.planes {
		ps := &ch.planes[i]
		phys, ok := ps.lookup(lbn)
		if !ok || ps.plane.WritePtr(phys) != 0 {
			return fmt.Errorf("%w: logical block %d, plane %d", ErrNotErased, lbn, i)
		}
	}
	// One sequence number per write command: all planes and pages of
	// this logical block share it, so the recovery scan can tell a
	// complete cross-plane generation from a torn one.
	seq := ch.nextSeq
	ch.nextSeq++
	m := blockMeta{seq: seq}
	if tag != nil {
		m.id = *tag
		m.tagged = true
	}
	ch.wr.lbn, ch.wr.data, ch.wr.meta = lbn, data, m
	// The whole command is laid out now and parks once, to the end of
	// its schedule or the instant the power dies; its pages reach the
	// media then.
	p.AwaitUntil(ch.cut, ch.scheduleWrite(p.Span()))
	ch.settleWrite()
	if err := ch.wr.failed; err != nil {
		return err
	}
	ch.bytesWritten += int64(ch.BlockSize())
	ch.meta[lbn] = m
	return nil
}

// EraseWrite performs the erase-before-write sequence as a single
// channel command, the common path in Baidu's block layer (§2.3).
func (ch *Channel) EraseWrite(p *sim.Proc, lbn int, data []byte) error {
	return ch.write(p, lbn, data, nil, true)
}

// EraseWriteTagged is EraseWrite with a write ID stamped into the
// out-of-band area (see WriteTagged).
func (ch *Channel) EraseWriteTagged(p *sim.Proc, lbn int, data []byte, id WriteID) error {
	return ch.write(p, lbn, data, &id, true)
}

// ReadAt reads size bytes at byte offset off within logical block lbn.
// Both must be page aligned. Consecutive pages use the NAND cache
// register: the array read of page n+1 overlaps the bus transfer of
// page n, so sustained reads are bus-limited (~38 MB/s per channel).
// The returned buffer is nil in timing-only mode.
func (ch *Channel) ReadAt(p *sim.Proc, lbn int, off, size int) ([]byte, error) {
	if err := ch.checkLBN(lbn); err != nil {
		return nil, err
	}
	pageSize := ch.cfg.Nand.PageSize
	if off%pageSize != 0 || size%pageSize != 0 || size <= 0 {
		return nil, fmt.Errorf("%w: off=%d size=%d page=%d", ErrBadAlignment, off, size, pageSize)
	}
	if off < 0 || off+size > ch.BlockSize() {
		return nil, fmt.Errorf("%w: off %d + size %d outside block %d", ErrBadAddress, off, size, ch.BlockSize())
	}
	if err := ch.checkAlive(); err != nil {
		return nil, err
	}
	ch.acquire(p, ch.readPrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil { // killed while queued
		return nil, err
	}

	// The engine holds the planes and the bus until it releases, so the
	// whole pipeline — array read of page n+1 under the bus transfer of
	// page n — is known now. It is walked one plane run (the command's
	// pages on one plane) at a time on local cursors, cur for the page
	// in hand, plane and bus for the lanes, and parks once for the
	// outcome (DESIGN.md §10). In timing-only mode a run's walk turns
	// steady once the bus sets the pace, and its remaining pages are
	// laid out in closed form.
	var out []byte
	if ch.cfg.Nand.RetainData {
		out = make([]byte, size)
	}
	t := ch.env.Tracer()
	parent := p.Span()
	stripe := ch.stripeBytes()
	tRead := ch.cfg.Nand.TRead
	hold := ch.bus.Hold(pageSize)
	bus := ch.bus.Free()
	cur := ch.env.Now()
	var pending time.Duration // wires-quiet instant of the in-flight page (0 = none)
	var err error
	done := 0
	for done < size && err == nil {
		pi, within := (off+done)/stripe, (off+done)%stripe
		first, k := within/pageSize, min(size-done, stripe-within)/pageSize
		ps := &ch.planes[pi]
		phys, ok := ps.lookup(lbn)
		if !ok {
			err = fmt.Errorf("%w: logical block %d never written", ErrBadAddress, lbn)
			break
		}
		// n pages pass admission; in timing-only mode the first sensed
		// of them carry the run's reads and a torn page ends it.
		n, admitErr := ps.plane.ReadableRun(phys, first, k)
		sensed, senseErr := n, error(nil)
		if out == nil {
			sensed, senseErr = ps.plane.SenseRun(phys, first, n)
		}
		tl := ps.plane.Timeline()
		plane := tl.Free()
		for i := 0; i < n; i++ {
			// Steady: the plane is idle and the page in hand ships the
			// moment the one before it lands. With hold ≥ TRead each
			// sensed page then lands under that transfer and ships one
			// hold later, so the walk repeats itself hold by hold up to
			// the torn page, if any.
			if m := sensed - i; out == nil && m > 0 && hold >= tRead &&
				plane <= cur && bus == pending && pending == cur+hold {
				if t != nil {
					for at := cur; at < cur+time.Duration(m)*hold; at += hold {
						t.End(at+tRead, t.Begin(at, parent, "nand/read", trace.PhaseFlash))
						t.End(at+2*hold, t.Begin(at+hold, parent, "chan/bus", trace.PhaseBus))
					}
				}
				plane = cur + time.Duration(m-1)*hold + tRead
				cur += time.Duration(m) * hold
				pending, bus = cur+hold, cur+hold
				done += m * pageSize
				i += m - 1
				continue
			}
			ch.walked++
			loaded := max(cur, plane) + tRead
			plane = loaded
			if t != nil {
				t.End(loaded, t.Begin(cur, parent, "nand/read", trace.PhaseFlash))
			}
			cur = loaded
			if out != nil {
				err = ch.sensePage(pi, phys, first+i, out[done:done+pageSize])
			} else if i == sensed {
				err = senseErr
			}
			if err != nil {
				break
			}
			// The cache register drains, then this page ships.
			cur = max(cur, pending)
			start := max(cur, bus)
			pending = start + hold
			bus = pending
			if t != nil {
				t.End(pending, t.Begin(start, parent, "chan/bus", trace.PhaseBus))
			}
			done += pageSize
		}
		tl.Commit(plane)
		if err == nil && n < k {
			// The page that failed admission reports at once.
			if t != nil {
				t.End(cur, t.Begin(cur, parent, "nand/read", trace.PhaseFlash))
			}
			err = admitErr
		}
	}
	ch.bus.Commit(bus, done)
	if err != nil {
		p.WaitUntil(cur) // the instant the failing step reported
		return nil, err
	}
	p.WaitUntil(pending)
	// A power cut takes effect at command granularity: the read resolves
	// at its scheduled end, as lost if a chip it read from died.
	for pi := off / stripe; pi <= (off+size-1)/stripe; pi++ {
		if ch.chips[ch.planes[pi].chip].PoweredOff() {
			return nil, fmt.Errorf("%w: plane %d", ErrPowerLoss, pi)
		}
	}
	ch.bytesRead += int64(size)
	return out, nil
}

// sensePage is the data-mode array read of one admitted page into dst:
// the bytes with their bit errors, then BCH correction and the CRC
// check, in the order the engine applies them page by page.
func (ch *Channel) sensePage(pi, phys, pg int, dst []byte) error {
	pl := ch.planes[pi].plane
	stored, err := pl.Sense(phys, pg, dst)
	if err != nil || !stored {
		return err
	}
	if ch.code != nil {
		if err := ch.correct(pi, phys, pg, dst); err != nil {
			return err
		}
	}
	if ch.cfg.VerifyCRC {
		return ch.verifyCRC(pl, pi, phys, pg, dst)
	}
	return nil
}

// storeParity computes and records BCH parity for each ECC sector of a
// freshly programmed page (modelling the out-of-band area).
func (ch *Channel) storeParity(pi, phys, pg int, payload []byte) {
	sector := ECCSector
	n := len(payload) / sector
	parities := make([][]byte, n)
	for s := 0; s < n; s++ {
		parities[s] = ch.code.Encode(payload[s*sector : (s+1)*sector])
	}
	ch.parity[parityKey{pi, phys, pg}] = parities
}

// correct runs the BCH decoder over each sector of a page read,
// fixing injected bit errors in place.
func (ch *Channel) correct(pi, phys, pg int, data []byte) error {
	parities, ok := ch.parity[parityKey{pi, phys, pg}]
	if !ok {
		return nil // written without ECC (timing-only payloads)
	}
	sector := ECCSector
	for s := 0; s < len(parities); s++ {
		par := append([]byte(nil), parities[s]...)
		n, err := ch.code.Decode(data[s*sector:(s+1)*sector], par)
		if err != nil {
			ch.eccFailures++
			return fmt.Errorf("%w: plane %d block %d page %d sector %d",
				ErrUncorrectable, pi, phys, pg, s)
		}
		ch.eccCorrected += int64(n)
	}
	return nil
}

// ScanFilter reads an entire logical block through the channel and
// applies a predicate inside the channel engine, returning only the
// matching fraction of the data — "computing in storage" using the
// FPGA logic headroom the paper points out (41% of each Spartan-6 is
// unused; §2.1, §5, and the authors' Active SSD work). The NAND and
// channel-bus costs are identical to a full read; the saving is that
// only selectivity*span bytes continue to the host. The predicate is
// abstracted as its selectivity; in data mode the filter returns every
// page whose first byte satisfies pred (a demonstrative predicate).
func (ch *Channel) ScanFilter(p *sim.Proc, lbn int, selectivity float64) (matched int, err error) {
	if err := ch.checkLBN(lbn); err != nil {
		return 0, err
	}
	if selectivity < 0 {
		selectivity = 0
	}
	if selectivity > 1 {
		selectivity = 1
	}
	// The scan is an ordinary full-block read at the channel level.
	if _, err := ch.ReadAt(p, lbn, 0, ch.BlockSize()); err != nil {
		return 0, err
	}
	return int(selectivity * float64(ch.BlockSize())), nil
}

// WearStats summarizes wear leveling effectiveness.
type WearStats struct {
	MinErase, MaxErase int
	TotalErase         int64
	BadBlocks          int
}

// Wear reports erase-count spread and bad blocks across all planes.
func (ch *Channel) Wear() WearStats {
	stats := WearStats{MinErase: 1 << 30}
	for i := range ch.planes {
		pl := ch.planes[i].plane
		for b := 0; b < pl.Blocks(); b++ {
			if pl.Bad(b) {
				stats.BadBlocks++
				continue
			}
			ec := pl.EraseCount(b)
			stats.TotalErase += int64(ec)
			if ec < stats.MinErase {
				stats.MinErase = ec
			}
			if ec > stats.MaxErase {
				stats.MaxErase = ec
			}
		}
	}
	if stats.MinErase == 1<<30 {
		stats.MinErase = 0
	}
	return stats
}

// LBNWear reports the mean erase count of the physical blocks
// currently mapped for logical block lbn, and whether the LBN is
// mapped at all. Static wear leveling uses it to find the coldest
// mapped block on a channel: data parked on low-erase-count media
// keeps those blocks out of circulation until it is migrated off.
func (ch *Channel) LBNWear(lbn int) (int, bool) {
	total, n := 0, 0
	for i := range ch.planes {
		ps := &ch.planes[i]
		phys, ok := ps.lookup(lbn)
		if !ok {
			continue
		}
		total += ps.plane.EraseCount(phys)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return total / n, true
}
