// Package blocklayer implements the unified user-space block layer
// that sits between CCDB's slices and the SDF device (§2.4).
//
// Writes arrive as fixed 8 MB blocks tagged with a unique ID (the low
// 64 bits of the 128-bit write ID in the production system). The layer
// hashes consecutive IDs round-robin over the device's 44 channels,
// manages per-channel free-space (which blocks are erased and ready,
// which still need an erase), and schedules erase commands into
// channel idle periods so they do not delay foreground requests.
package blocklayer

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sdf/internal/core"
	"sdf/internal/flashchan"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Layer errors.
var (
	ErrNoSpace     = errors.New("blocklayer: channel has no free blocks")
	ErrUnknownID   = errors.New("blocklayer: no block with this ID")
	ErrDuplicateID = errors.New("blocklayer: ID already written")
)

// BlockID identifies one 8 MB write. The production system uses
// 128-bit IDs of which the low 64 bits are significant (§2.4); we
// model exactly those 64 bits.
type BlockID uint64

// Handle locates a written block on the device.
type Handle struct {
	Channel int
	LBN     int
}

// Placement selects how write IDs map to channels.
type Placement int

// Placement policies.
const (
	// PlacementHash is the production policy: consecutive IDs walk
	// the channels round-robin (§2.4).
	PlacementHash Placement = iota
	// PlacementLeastLoaded picks the channel with the fewest writes
	// in flight (ties broken by the largest pre-erased pool) — the
	// load-balance-aware scheduler the paper names as future work
	// (§3.3.1, §5). Reads still follow where the block was written.
	PlacementLeastLoaded
)

// EraseGate coordinates background erases across the replicas of a
// slice (internal/coord, DESIGN.md §16). AcquireErase is called with
// the channel's pre-erased pool depth before every background erase;
// it may park the eraser until this replica is granted an erase
// window, and reports whether the forced-erase escape hatch fired
// instead. The returned release must be called (idempotently) once
// the erase completes.
//
// PoolLow is called, park-free, whenever a write consumes from a
// channel's pre-erased pool. The gate uses the updated depth to wake
// parked erase requests whose urgency has changed since they queued —
// without it, a request parked while the pool was deep would sleep
// through the pool draining to empty beneath it, degrading foreground
// writes to ungated inline erases.
type EraseGate interface {
	AcquireErase(p *sim.Proc, free int) (release func(), forced bool)
	PoolLow(free int)
}

// Fixed failure-handling and scheduling parameters.
const (
	// idlePollInterval is how often the eraser re-checks a busy channel.
	idlePollInterval = time.Millisecond
	// quarantineThreshold is how many consecutive command failures on
	// one channel put it into quarantine. A dead-engine error
	// quarantines immediately regardless of the count.
	quarantineThreshold = 3
	// quarantineWindow is how long a quarantined channel is excluded
	// from write placement. Reads still go to it (the data lives
	// there), and a read success ends the suspicion early.
	quarantineWindow = 100 * time.Millisecond
	// readRetries bounds how many times a failed read is retried
	// before the error surfaces to the caller.
	readRetries = 2
	// retryBackoff is the virtual-time wait before the first read
	// retry; it doubles per attempt.
	retryBackoff = 50 * time.Microsecond
)

// Config tunes the layer.
type Config struct {
	// BackgroundErase schedules erases of freed blocks into channel
	// idle time, so writes usually find a pre-erased block. Disabling
	// it forces every write to pay an inline erase (ablation A3).
	BackgroundErase bool
	// Placement selects the write-placement policy.
	Placement Placement

	// EraseGate, when non-nil, gates every background erase (and the
	// scrub backlog) behind the replica's erase-window coordinator, so
	// no two replicas of a slice pay their 3 ms erases at once. Nil
	// keeps the layer's standalone behavior exactly.
	EraseGate EraseGate

	// StaticWL enables static wear leveling: when a channel's erase
	// count spread exceeds WearSpreadThreshold, the eraser migrates
	// the coldest mapped block (lowest physical erase count — e.g. a
	// recovered block that has sat unmodified since mount) to a fresh
	// block, returning its cold media to the erase pools. Migrations
	// are credited by foreground writes, so an idle device performs
	// none and the event queue still drains.
	StaticWL bool
	// WearSpreadThreshold is the max-minus-min erase count spread on
	// one channel that triggers a migration. Defaults to 8.
	WearSpreadThreshold int
}

// DefaultConfig enables idle-time erase scheduling with the
// production round-robin hash placement.
func DefaultConfig() Config {
	return Config{BackgroundErase: true}
}

// chanState tracks free space and health of one channel.
type chanState struct {
	erased []int // erased, ready to program
	dirty  []int // invalidated, erase pending
	work   *sim.Signal

	// scrubBacklog is how many of the channel's pending erases are
	// crash-suspect blocks (torn writes, partial erases) queued by
	// Mount for an eager scrub: while it is positive the eraser does
	// not wait for channel idle time.
	scrubBacklog int

	// wlCredits bounds static wear leveling: each foreground write
	// earns the channel one migration credit (capped), so migrations
	// can never outpace the workload — and stop when it stops.
	wlCredits int

	consecErrs       int
	quarantinedUntil time.Duration // virtual instant quarantine lifts
	quarantines      metrics.Counter
}

// Layer is the block layer instance bound to one SDF device.
type Layer struct {
	cfg      Config
	env      *sim.Env
	dev      *core.Device
	chans    []*chanState
	blocks   map[BlockID]Handle
	inflight []int // writes in flight per channel

	// Counters are metrics.Counter so RegisterMetrics can adopt the
	// same storage into a registry (the exported series and the Stats
	// accessors cannot drift).
	inlineErases     metrics.Counter
	backgroundErases metrics.Counter
	writes           metrics.Counter
	reads            metrics.Counter
	readRetries      metrics.Counter
	placementSkips   metrics.Counter
	scrubs           metrics.Counter
	wlMigrations     metrics.Counter
}

// New builds the layer; all device blocks start as dirty (needing an
// initial erase) and the per-channel erasers start immediately.
func New(env *sim.Env, dev *core.Device, cfg Config) *Layer {
	l := newLayer(env, dev, cfg)
	for _, cs := range l.chans {
		for lbn := 0; lbn < dev.BlocksPerChannel(); lbn++ {
			cs.dirty = append(cs.dirty, lbn)
		}
	}
	l.startErasers()
	return l
}

// newLayer builds the layer skeleton: defaults applied, channel state
// allocated, pools empty, erasers not yet running. New and Mount fill
// the pools their own way before calling startErasers.
func newLayer(env *sim.Env, dev *core.Device, cfg Config) *Layer {
	if cfg.WearSpreadThreshold <= 0 {
		cfg.WearSpreadThreshold = 8
	}
	l := &Layer{
		cfg:      cfg,
		env:      env,
		dev:      dev,
		blocks:   make(map[BlockID]Handle),
		inflight: make([]int, dev.Channels()),
	}
	for c := 0; c < dev.Channels(); c++ {
		l.chans = append(l.chans, &chanState{work: sim.NewSignal(env)})
	}
	return l
}

// startErasers launches the per-channel idle-time erasers and kicks
// any channel that already has an erase backlog.
func (l *Layer) startErasers() {
	if !l.cfg.BackgroundErase {
		return
	}
	for c, cs := range l.chans {
		c := c
		l.env.Go(fmt.Sprintf("blocklayer/eraser.%d", c), func(p *sim.Proc) {
			l.eraseLoop(p, c)
		})
		if len(cs.dirty) > 0 {
			cs.work.Fire()
		}
	}
}

// Device returns the underlying SDF device.
func (l *Layer) Device() *core.Device { return l.dev }

// ChannelOf returns the channel an ID hashes to: consecutive IDs walk
// the channels round-robin (§2.4).
func (l *Layer) ChannelOf(id BlockID) int {
	return int(uint64(id) % uint64(l.dev.Channels()))
}

// BlockSize returns the fixed write unit (8 MB).
func (l *Layer) BlockSize() int { return l.dev.BlockSize() }

// PageSize returns the read unit (8 KB).
func (l *Layer) PageSize() int { return l.dev.PageSize() }

// beginOp opens a root span for one block-layer request, reparenting
// p under it for the duration. The returned func closes it.
func (l *Layer) beginOp(p *sim.Proc, name string) func() {
	t := l.env.Tracer()
	if t == nil {
		return func() {}
	}
	prev := p.Span()
	op := t.Begin(l.env.Now(), prev, name, trace.PhaseOp)
	p.SetSpan(op)
	return func() {
		p.SetSpan(prev)
		t.End(l.env.Now(), op)
	}
}

// Healthy reports whether channel c should receive new writes: its
// engine is alive and it is not inside a quarantine window.
func (l *Layer) Healthy(c int) bool {
	return l.dev.Channel(c).Alive() && l.env.Now() >= l.chans[c].quarantinedUntil
}

// recordSuccess clears the consecutive-error count after a completed
// command. A success on a channel with an erase backlog also wakes the
// background eraser: it parks while the engine is offline, and a
// served command is the proof of revival it waits for.
func (l *Layer) recordSuccess(c int) {
	cs := l.chans[c]
	cs.consecErrs = 0
	if len(cs.dirty) > 0 {
		cs.work.Fire()
	}
}

// recordError counts one command failure. A dead engine quarantines
// the channel immediately; other errors quarantine after
// quarantineThreshold consecutive failures.
func (l *Layer) recordError(c int, err error) {
	cs := l.chans[c]
	cs.consecErrs++
	if errors.Is(err, flashchan.ErrChannelDead) || cs.consecErrs >= quarantineThreshold {
		l.quarantine(c)
	}
}

// quarantine excludes channel c from write placement for one window,
// emitting a fault-phase span covering it. Re-quarantine on each
// failed probe is how a permanently dead channel stays excluded — and
// how a revived one is naturally readmitted when the window lapses.
func (l *Layer) quarantine(c int) {
	cs := l.chans[c]
	until := l.env.Now() + quarantineWindow
	if until <= cs.quarantinedUntil {
		return // an open window already covers this failure
	}
	cs.quarantinedUntil = until
	cs.quarantines.Inc()
	cs.consecErrs = 0
	if t := l.env.Tracer(); t != nil {
		span := t.Begin(l.env.Now(), 0, fmt.Sprintf("blocklayer/quarantine.%d", c), trace.PhaseFault)
		l.env.Schedule(quarantineWindow, func() { t.End(l.env.Now(), span) })
	}
}

// poolLow tells the erase gate, if any, that channel's pre-erased pool
// shrank to free blocks, so parked erase requests re-evaluate their
// urgency (see EraseGate).
func (l *Layer) poolLow(free int) {
	if l.cfg.EraseGate != nil {
		l.cfg.EraseGate.PoolLow(free)
	}
}

// pickChannel applies the placement policy, then degrades around
// unhealthy channels: if the policy's pick is offline or quarantined,
// probe forward for the nearest healthy channel with space. When every
// channel is healthy this is exactly the policy's answer.
func (l *Layer) pickChannel(id BlockID) int {
	c := l.policyChannel(id)
	if l.Healthy(c) {
		return c
	}
	n := len(l.chans)
	for i := 1; i < n; i++ {
		alt := (c + i) % n
		if l.Healthy(alt) && len(l.chans[alt].erased)+len(l.chans[alt].dirty) > 0 {
			l.placementSkips.Inc()
			return alt
		}
	}
	return c // nothing healthy: let the policy channel report the error
}

// policyChannel is the placement policy proper, health-blind.
func (l *Layer) policyChannel(id BlockID) int {
	if l.cfg.Placement == PlacementHash {
		return l.ChannelOf(id)
	}
	best := -1
	for c := range l.chans {
		if len(l.chans[c].erased)+len(l.chans[c].dirty) == 0 {
			continue // no space on this channel
		}
		if best < 0 {
			best = c
			continue
		}
		bi, ci := l.inflight[best], l.inflight[c]
		if ci < bi || (ci == bi && len(l.chans[c].erased) > len(l.chans[best].erased)) {
			best = c
		}
	}
	if best < 0 {
		best = l.ChannelOf(id) // let the hash channel report ErrNoSpace
	}
	return best
}

// Write stores one block under id. data must be BlockSize long, or
// nil in timing-only mode. If the channel has a pre-erased block the
// write programs directly; otherwise it pays an inline erase.
func (l *Layer) Write(p *sim.Proc, id BlockID, data []byte) (Handle, error) {
	if _, ok := l.blocks[id]; ok {
		return Handle{}, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	end := l.beginOp(p, "blocklayer/write")
	defer end()
	c := l.pickChannel(id)
	cs := l.chans[c]
	l.inflight[c]++
	defer func() { l.inflight[c]-- }()
	// Every write carries its ID in the pages' out-of-band area (the
	// paper's 128-bit write IDs, low 64 bits significant), so a
	// mount-time scan can rebuild this map after power loss.
	tag := flashchan.WriteID{Lo: uint64(id)}
	var lbn int
	switch {
	case len(cs.erased) > 0:
		lbn = cs.erased[len(cs.erased)-1]
		cs.erased = cs.erased[:len(cs.erased)-1]
		l.poolLow(len(cs.erased))
		if err := l.dev.WriteTagged(p, c, lbn, data, tag); err != nil {
			// Block state is uncertain after a failed program; return
			// it via the dirty pool so it is re-erased before reuse.
			cs.dirty = append(cs.dirty, lbn)
			cs.work.Fire()
			l.recordError(c, err)
			return Handle{}, err
		}
	case len(cs.dirty) > 0:
		lbn = cs.dirty[len(cs.dirty)-1]
		cs.dirty = cs.dirty[:len(cs.dirty)-1]
		l.inlineErases.Inc()
		if err := l.dev.EraseWriteTagged(p, c, lbn, data, tag); err != nil {
			if !errors.Is(err, flashchan.ErrOutOfSpace) {
				// Keep the block in circulation unless its spares are
				// exhausted; previously a failure here leaked the lbn.
				cs.dirty = append(cs.dirty, lbn)
				cs.work.Fire()
			}
			l.recordError(c, err)
			return Handle{}, err
		}
	default:
		return Handle{}, fmt.Errorf("%w: channel %d", ErrNoSpace, c)
	}
	l.recordSuccess(c)
	if l.cfg.StaticWL && cs.wlCredits < 4 {
		// Each foreground write earns one static-WL migration credit,
		// bounding background churn by the workload itself.
		cs.wlCredits++
	}
	h := Handle{Channel: c, LBN: lbn}
	l.blocks[id] = h
	l.writes.Inc()
	return h, nil
}

// Read returns size bytes at byte offset off within the block written
// under id. off and size must be page aligned. Transient failures
// (an ECC burst, a dead-then-revived engine) are retried up to
// readRetries times with exponential virtual-time backoff before the
// error surfaces.
func (l *Layer) Read(p *sim.Proc, id BlockID, off, size int) ([]byte, error) {
	h, ok := l.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	end := l.beginOp(p, "blocklayer/read")
	defer end()
	l.reads.Inc()
	for attempt := 0; ; attempt++ {
		// Re-resolve per attempt: a static-WL migration may have moved
		// the block between retries, and the retry must follow it.
		if cur, ok := l.blocks[id]; ok {
			h = cur
		}
		data, err := l.dev.Read(p, h.Channel, h.LBN, off, size)
		if err == nil {
			l.recordSuccess(h.Channel)
			return data, nil
		}
		l.recordError(h.Channel, err)
		if attempt >= readRetries || !retryable(err) {
			return nil, err
		}
		l.readRetries.Inc()
		backoff := retryBackoff << uint(attempt)
		t := l.env.Tracer()
		span := t.Begin(l.env.Now(), p.Span(), "blocklayer/read-retry", trace.PhaseFault)
		p.Wait(backoff)
		t.End(l.env.Now(), span)
	}
}

// retryable reports whether a read failure might clear on retry: a
// random ECC burst redraws per read, and a dead engine may be revived.
// Addressing and state errors are permanent.
func retryable(err error) bool {
	return errors.Is(err, flashchan.ErrUncorrectable) || errors.Is(err, flashchan.ErrChannelDead)
}

// Lookup returns the handle for id.
func (l *Layer) Lookup(id BlockID) (Handle, bool) {
	h, ok := l.blocks[id]
	return h, ok
}

// IDs returns every live block ID in ascending order.
func (l *Layer) IDs() []BlockID {
	ids := make([]BlockID, 0, len(l.blocks))
	for id := range l.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MaxID returns the highest live block ID, if any. ID allocators
// resume past it after a remount so recovered blocks are never
// re-addressed.
func (l *Layer) MaxID() (BlockID, bool) {
	var max BlockID
	ok := false
	for id := range l.blocks {
		if !ok || id > max {
			max = id
			ok = true
		}
	}
	return max, ok
}

// Free releases the block written under id. The space returns to the
// channel's dirty pool; the background eraser reclaims it during idle
// time (or the next write to the channel pays an inline erase).
func (l *Layer) Free(p *sim.Proc, id BlockID) error {
	h, ok := l.blocks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	delete(l.blocks, id)
	cs := l.chans[h.Channel]
	cs.dirty = append(cs.dirty, h.LBN)
	cs.work.Fire()
	return nil
}

// FreeBlocks returns (erased, dirty) block counts for a channel.
func (l *Layer) FreeBlocks(c int) (erased, dirty int) {
	return len(l.chans[c].erased), len(l.chans[c].dirty)
}

// Stats returns (writes, reads, inline erases, background erases).
func (l *Layer) Stats() (writes, reads, inline, background int64) {
	return l.writes.Value(), l.reads.Value(), l.inlineErases.Value(), l.backgroundErases.Value()
}

// HealthStats returns aggregate degraded-mode counters: quarantine
// events across all channels, read retries performed, and writes
// placed away from their policy channel because it was unhealthy.
func (l *Layer) HealthStats() (quarantines, readRetries, placementSkips int64) {
	for _, cs := range l.chans {
		quarantines += cs.quarantines.Value()
	}
	return quarantines, l.readRetries.Value(), l.placementSkips.Value()
}

// wearSpread returns the widest erase-count spread (max minus min)
// across the device's channels — the quantity static wear leveling
// drives back under WearSpreadThreshold. Park-free (gauge-safe).
func (l *Layer) wearSpread() int {
	spread := 0
	for c := range l.chans {
		ws := l.dev.Channel(c).Wear()
		if s := ws.MaxErase - ws.MinErase; s > spread {
			spread = s
		}
	}
	return spread
}

// WearLevelStats returns (static wear-leveling migrations performed,
// current worst per-channel erase-count spread).
func (l *Layer) WearLevelStats() (migrations int64, spread int) {
	return l.wlMigrations.Value(), l.wearSpread()
}

// RegisterMetrics adopts the layer's counters into r and installs
// free-space and health gauges. Per-channel quarantine counters keep
// their channel identity via a chan label; the gauges reduce channel
// state to the numbers the availability experiments watch (erased
// blocks ready for writes, blocks awaiting erase, channels currently
// inside a quarantine window). Gauge callbacks read in-memory slices
// only — they must stay park-free, per the GaugeFunc contract.
func (l *Layer) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("blocklayer_writes_total", &l.writes, labels...)
	r.RegisterCounter("blocklayer_reads_total", &l.reads, labels...)
	r.RegisterCounter("blocklayer_inline_erases_total", &l.inlineErases, labels...)
	r.RegisterCounter("blocklayer_background_erases_total", &l.backgroundErases, labels...)
	r.RegisterCounter("blocklayer_read_retries_total", &l.readRetries, labels...)
	r.RegisterCounter("blocklayer_placement_skips_total", &l.placementSkips, labels...)
	r.RegisterCounter("blocklayer_scrubbed_blocks_total", &l.scrubs, labels...)
	r.RegisterCounter("blocklayer_static_wl_migrations_total", &l.wlMigrations, labels...)
	r.GaugeFunc("blocklayer_wear_spread", func() float64 {
		return float64(l.wearSpread())
	}, labels...)
	for c, cs := range l.chans {
		r.RegisterCounter("blocklayer_quarantines_total", &cs.quarantines,
			append(append([]metrics.Label(nil), labels...), metrics.L("chan", fmt.Sprint(c)))...)
	}
	r.GaugeFunc("blocklayer_free_blocks", func() float64 {
		var n int
		for _, cs := range l.chans {
			n += len(cs.erased)
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("blocklayer_dirty_blocks", func() float64 {
		var n int
		for _, cs := range l.chans {
			n += len(cs.dirty)
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("blocklayer_quarantined_channels", func() float64 {
		var n int
		now := l.env.Now()
		for _, cs := range l.chans {
			if now < cs.quarantinedUntil {
				n++
			}
		}
		return float64(n)
	}, labels...)
}

// eraseLoop is the per-channel idle-time eraser: it drains the dirty
// pool whenever the channel engine is idle, deferring to foreground
// traffic otherwise. With an EraseGate configured, each erase first
// acquires the replica's erase window (or the forced hatch); with
// StaticWL, idle time with a wide wear spread triggers cold-block
// migrations whose freed media re-enters this same loop.
func (l *Layer) eraseLoop(p *sim.Proc, c int) {
	cs := l.chans[c]
	for {
		if len(cs.dirty) == 0 || !l.dev.Channel(c).Alive() {
			if l.maybeStaticWL(p, c) {
				continue // the migration queued the cold block for erase
			}
			// Nothing to do — or the engine is offline and a timer poll
			// would keep the event queue alive forever on a channel
			// that never comes back. Park until more blocks are freed
			// or a served command proves the engine revived
			// (recordSuccess fires the signal).
			if !cs.work.Fired() {
				p.Await(cs.work)
			}
			cs.work = sim.NewSignal(l.env)
			continue
		}
		// A scrub backlog (crash-suspect blocks queued by Mount) is
		// drained eagerly — suspect media must not sit in the pool
		// waiting for an idle window.
		scrub := cs.scrubBacklog > 0
		if !scrub && !l.dev.Channel(c).Idle() {
			p.Wait(idlePollInterval)
			continue
		}
		release := func() {}
		if l.cfg.EraseGate != nil {
			release, _ = l.cfg.EraseGate.AcquireErase(p, len(cs.erased))
			// The grant may have parked this eraser for a while:
			// re-validate the work before touching the pools.
			if len(cs.dirty) == 0 || !l.dev.Channel(c).Alive() {
				release()
				continue
			}
			scrub = cs.scrubBacklog > 0
		}
		lbn := cs.dirty[len(cs.dirty)-1]
		cs.dirty = cs.dirty[:len(cs.dirty)-1]
		err := l.dev.Erase(p, c, lbn)
		release()
		if err != nil {
			if errors.Is(err, flashchan.ErrChannelDead) || errors.Is(err, flashchan.ErrPowerLoss) {
				// Killed between the aliveness check and the command
				// (or power died mid-erase): keep the backlog for
				// after revival or remount.
				cs.dirty = append(cs.dirty, lbn)
				l.recordError(c, err)
				continue
			}
			// Worn out or spare-exhausted; dropped from circulation —
			// a dropped suspect block shrinks the scrub backlog too.
			if scrub {
				cs.scrubBacklog--
			}
			continue
		}
		cs.erased = append(cs.erased, lbn)
		if scrub {
			cs.scrubBacklog--
			l.scrubs.Inc()
		} else {
			l.backgroundErases.Inc()
		}
	}
}

// maybeStaticWL performs at most one static wear-leveling migration
// on channel c: when the channel's erase-count spread exceeds the
// threshold, the coldest mapped block (deterministically: sorted ID
// order, lowest mean physical erase count, lowest ID breaking ties)
// is rewritten to a fresh block and its cold media queued for erase —
// recovered blocks that sat unmodified since mount finally rejoin
// circulation. Runs only on an idle, live channel with migration
// credits (earned by foreground writes) and at least two pre-erased
// blocks, so it never starves the foreground write path and never
// keeps an idle simulation alive. Reports whether it migrated.
func (l *Layer) maybeStaticWL(p *sim.Proc, c int) bool {
	if !l.cfg.StaticWL {
		return false
	}
	cs := l.chans[c]
	ch := l.dev.Channel(c)
	if cs.wlCredits <= 0 || len(cs.erased) < 2 || !ch.Alive() || !ch.Idle() {
		return false
	}
	ws := ch.Wear()
	if ws.MaxErase-ws.MinErase < l.cfg.WearSpreadThreshold {
		return false
	}
	victim, wear := BlockID(0), -1
	for _, id := range l.IDs() {
		h := l.blocks[id]
		if h.Channel != c {
			continue
		}
		w, ok := ch.LBNWear(h.LBN)
		if !ok {
			continue
		}
		if wear < 0 || w < wear {
			victim, wear = id, w
		}
	}
	// Only data parked on genuinely cold media is worth moving: the
	// victim must sit in the bottom half of the spread, or migration
	// would churn blocks the dynamic wear heap already rotates.
	if wear < 0 || wear > ws.MinErase+l.cfg.WearSpreadThreshold/2 {
		return false
	}
	h := l.blocks[victim]
	end := l.beginOp(p, "blocklayer/static-wl")
	defer end()
	data, err := l.dev.Read(p, c, h.LBN, 0, l.BlockSize())
	if err != nil {
		l.recordError(c, err)
		return false
	}
	dst := cs.erased[len(cs.erased)-1]
	cs.erased = cs.erased[:len(cs.erased)-1]
	l.poolLow(len(cs.erased))
	if err := l.dev.WriteTagged(p, c, dst, data, flashchan.WriteID{Lo: uint64(victim)}); err != nil {
		cs.dirty = append(cs.dirty, dst)
		cs.work.Fire()
		l.recordError(c, err)
		return false
	}
	// The new copy supersedes the old by write sequence, so a crash
	// between this program and the erase below recovers the fresh copy
	// and stale-discards the cold one — the oracle's remount path
	// already resolves exactly this shape.
	l.blocks[victim] = Handle{Channel: c, LBN: dst}
	cs.dirty = append(cs.dirty, h.LBN)
	cs.wlCredits--
	l.wlMigrations.Inc()
	l.recordSuccess(c)
	return true
}
