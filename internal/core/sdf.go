// Package core implements the SDF device — the paper's primary
// contribution: a software-defined flash card that exposes each of its
// 44 flash channels to host software as an independent device with an
// asymmetric interface (8 KB read unit, 8 MB write/erase unit, and an
// explicit erase command), no garbage collection, no DRAM write cache,
// no cross-channel parity, and no over-provisioned space (§2).
//
// The host side reaches the device over PCIe 1.1 x8 through a
// user-space IOCTL path (~3 µs per request instead of the kernel
// stack's ~12.9 µs) with completion interrupts merged across channel
// engines (§2.1, §2.4).
package core

import (
	"fmt"
	"time"

	"sdf/internal/flashchan"
	"sdf/internal/hostif"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Config assembles an SDF device.
type Config struct {
	// Channels is the number of independently exposed flash channels
	// (44 on the production card).
	Channels int
	// Channel configures each channel engine and its NAND.
	Channel flashchan.Config
	// Stack is the host software path (BypassStack for SDF).
	Stack hostif.StackParams
}

// DefaultConfig returns the production SDF card: 44 channels, 704 GB
// raw, PCIe 1.1 x8, user-space bypass stack (Table 3).
func DefaultConfig() Config {
	return Config{
		Channels: 44,
		Channel:  flashchan.DefaultConfig(),
		Stack:    hostif.BypassStack(),
	}
}

// Device is a simulated SDF card plugged into a host.
type Device struct {
	cfg      Config
	env      *sim.Env
	channels []*flashchan.Channel
	pcie     *hostif.Interface
	stack    *hostif.Stack
	free     []*ioReq // request records between uses
}

// ioReq is one Read or write in flight: the helper process that runs
// the channel command while the caller drives the DMA, with the
// command's arguments and results as fields. The Proc is embedded and
// the two bodies are method values bound when the record is first
// built, so a request served from the free list allocates nothing
// (DESIGN.md §15). Records are made on demand, never ahead of time.
type ioReq struct {
	d    *Device
	proc sim.Proc
	read func(*sim.Proc)
	prog func(*sim.Proc)

	op                 trace.SpanID
	ch, lbn, off, size int
	data               []byte
	erase, tagged      bool
	tag                flashchan.WriteID

	out []byte
	err error
}

func (d *Device) getReq() *ioReq {
	if n := len(d.free); n > 0 {
		r := d.free[n-1]
		d.free = d.free[:n-1]
		return r
	}
	r := &ioReq{d: d}
	r.read, r.prog = r.runRead, r.runWrite
	return r
}

// putReq recycles a record whose process has been joined.
func (d *Device) putReq(r *ioReq) {
	r.data, r.out, r.err = nil, nil, nil
	d.free = append(d.free, r)
}

func (r *ioReq) runRead(wp *sim.Proc) {
	wp.SetSpan(r.op)
	r.out, r.err = r.d.channels[r.ch].ReadAt(wp, r.lbn, r.off, r.size)
}

func (r *ioReq) runWrite(wp *sim.Proc) {
	wp.SetSpan(r.op)
	ch := r.d.channels[r.ch]
	switch {
	case r.erase && r.tagged:
		r.err = ch.EraseWriteTagged(wp, r.lbn, r.data, r.tag)
	case r.erase:
		r.err = ch.EraseWrite(wp, r.lbn, r.data)
	case r.tagged:
		r.err = ch.WriteTagged(wp, r.lbn, r.data, r.tag)
	default:
		r.err = ch.Write(wp, r.lbn, r.data)
	}
}

// New builds the device and its channel engines on env.
func New(env *sim.Env, cfg Config) (*Device, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("core: need at least one channel")
	}
	d := &Device{
		cfg:   cfg,
		env:   env,
		pcie:  hostif.PCIe11x8(env),
		stack: hostif.NewStack(env, cfg.Stack),
	}
	for i := 0; i < cfg.Channels; i++ {
		chCfg := cfg.Channel
		chCfg.Seed = int64(i + 1)
		ch, err := flashchan.New(env, chCfg)
		if err != nil {
			return nil, err
		}
		ch.SetLabel(fmt.Sprintf("chan%d", i))
		d.channels = append(d.channels, ch)
	}
	return d, nil
}

// DeviceState is the card state that survives a power loss: every
// channel's NAND media and spare-area metadata. Capture it with State
// after PowerLoss and hand it to Mount in a fresh environment.
type DeviceState struct {
	channels []*flashchan.Persistent
}

// PowerLoss cuts power to the whole card at the current instant:
// every channel engine goes offline and in-flight programs and erases
// tear in the media. It is a pure state flip (no parking), so fault
// handlers may call it from scheduler context. There is no power-on;
// recovery is State + Mount + Recover.
func (d *Device) PowerLoss() {
	for _, ch := range d.channels {
		ch.PowerOff()
	}
}

// State captures the device's persistent media. Call only after
// PowerLoss, when no command can mutate it.
func (d *Device) State() *DeviceState {
	st := &DeviceState{}
	for _, ch := range d.channels {
		st.channels = append(st.channels, ch.Persistent())
	}
	return st
}

// Mount rebuilds a device over surviving media in a fresh
// environment, with the same per-channel seeds and labels New would
// assign. The channels come up with empty FTL state; run Recover
// before serving I/O.
func Mount(env *sim.Env, cfg Config, state *DeviceState) (*Device, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("core: need at least one channel")
	}
	if len(state.channels) != cfg.Channels {
		return nil, fmt.Errorf("core: mount with %d channels of media, config wants %d", len(state.channels), cfg.Channels)
	}
	d := &Device{
		cfg:   cfg,
		env:   env,
		pcie:  hostif.PCIe11x8(env),
		stack: hostif.NewStack(env, cfg.Stack),
	}
	for i := 0; i < cfg.Channels; i++ {
		chCfg := cfg.Channel
		chCfg.Seed = int64(i + 1)
		ch, err := flashchan.Mount(env, chCfg, state.channels[i])
		if err != nil {
			return nil, err
		}
		ch.SetLabel(fmt.Sprintf("chan%d", i))
		d.channels = append(d.channels, ch)
	}
	return d, nil
}

// Recover runs every channel's mount-time scan in parallel — the
// card's 44 engines each rebuild their own FTL — and returns the
// per-channel reports, indexed by channel.
func (d *Device) Recover(p *sim.Proc) ([]flashchan.RecoveryReport, error) {
	end := d.beginOp(p, "sdf/recover")
	defer end()
	op := p.Span()
	reports := make([]flashchan.RecoveryReport, len(d.channels))
	errs := make([]error, len(d.channels))
	var workers []*sim.Proc
	for i := range d.channels {
		ci := i
		w := d.env.Go("sdf/recover", func(wp *sim.Proc) {
			wp.SetSpan(op)
			reports[ci], errs[ci] = d.channels[ci].Recover(wp)
		})
		workers = append(workers, w)
	}
	for _, w := range workers {
		p.Join(w)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: channel %d recovery: %w", i, err)
		}
	}
	return reports, nil
}

// Checkpoint persists every channel's FTL metadata to its dedicated
// checkpoint blocks, in parallel across the channel engines. Requires
// Config.Channel.CheckpointEvery > 0 (DESIGN.md §14); upper layers
// call it to bound the next remount's scan to post-checkpoint
// activity.
func (d *Device) Checkpoint(p *sim.Proc) error {
	end := d.beginOp(p, "sdf/checkpoint")
	defer end()
	op := p.Span()
	errs := make([]error, len(d.channels))
	var workers []*sim.Proc
	for i := range d.channels {
		ci := i
		w := d.env.Go("sdf/checkpoint", func(wp *sim.Proc) {
			wp.SetSpan(op)
			errs[ci] = d.channels[ci].Checkpoint(wp)
		})
		workers = append(workers, w)
	}
	for _, w := range workers {
		p.Join(w)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: channel %d checkpoint: %w", i, err)
		}
	}
	return nil
}

// CheckpointStats sums per-channel checkpoint counters: images
// written, failed attempts, and the worst-case age (write commands
// since the last successful checkpoint on any channel).
func (d *Device) CheckpointStats() (written, failures int64, maxAge int) {
	for _, ch := range d.channels {
		w, f, age := ch.CheckpointStats()
		written += w
		failures += f
		if age > maxAge {
			maxAge = age
		}
	}
	return written, failures, maxAge
}

// beginOp opens the root span of one device operation and reparents p
// under it so every instrumented layer below attributes to this I/O.
// The returned func restores p and closes the span; call it when the
// operation completes (error paths included).
func (d *Device) beginOp(p *sim.Proc, name string) func() {
	t := d.env.Tracer()
	if t == nil {
		return func() {}
	}
	prev := p.Span()
	op := t.Begin(d.env.Now(), prev, name, trace.PhaseOp)
	p.SetSpan(op)
	return func() {
		p.SetSpan(prev)
		t.End(d.env.Now(), op)
	}
}

// StartSampler schedules a periodic time-series sampler that records
// each channel's instantaneous queue depth and busy flag as counter
// events until the given virtual instant. It must be called before
// Run: sampling stops by itself, so it does not keep the event loop
// alive past `until`. No-op without a tracer.
func (d *Device) StartSampler(interval, until time.Duration) {
	t := d.env.Tracer()
	if t == nil || interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		now := d.env.Now()
		for i, ch := range d.channels {
			t.Counter(now, fmt.Sprintf("chan%d/qdepth", i), int64(ch.QueueDepth()))
			busy := int64(0)
			if !ch.Idle() {
				busy = 1
			}
			t.Counter(now, fmt.Sprintf("chan%d/busy", i), busy)
		}
		if now+interval <= until {
			d.env.Schedule(interval, tick)
		}
	}
	d.env.Schedule(0, tick)
}

// Channels returns the number of exposed channels.
func (d *Device) Channels() int { return len(d.channels) }

// Channel returns channel i's engine, by analogy with the /dev/sda0 ..
// /dev/sda43 device nodes the card exposes (§2.3, Figure 5).
func (d *Device) Channel(i int) *flashchan.Channel { return d.channels[i] }

// RegisterMetrics exports the device's observable state against r:
// the host interface and software stack, plus cross-channel
// aggregates (busy channels, total queue depth, cumulative bytes
// moved, ECC failures, dead channels). There are no per-channel
// series: a 44-channel card would flood the sampler with hundreds of
// mostly-idle ones.
func (d *Device) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	d.pcie.RegisterMetrics(r, labels...)
	d.stack.RegisterMetrics(r, labels...)
	r.CounterFunc("device_read_bytes_total", func() int64 {
		var n int64
		for _, ch := range d.channels {
			rd, _, _ := ch.Counters()
			n += rd
		}
		return n
	}, labels...)
	r.CounterFunc("device_written_bytes_total", func() int64 {
		var n int64
		for _, ch := range d.channels {
			_, w, _ := ch.Counters()
			n += w
		}
		return n
	}, labels...)
	r.CounterFunc("device_ecc_failures_total", func() int64 {
		var n int64
		for _, ch := range d.channels {
			_, f := ch.ECCStats()
			n += f
		}
		return n
	}, labels...)
	r.GaugeFunc("device_busy_channels", func() float64 {
		var n int
		for _, ch := range d.channels {
			if !ch.Idle() {
				n++
			}
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("device_queue_depth", func() float64 {
		var n int
		for _, ch := range d.channels {
			n += ch.QueueDepth()
		}
		return float64(n)
	}, labels...)
	r.GaugeFunc("device_dead_channels", func() float64 {
		var n int
		for _, ch := range d.channels {
			if !ch.Alive() {
				n++
			}
		}
		return float64(n)
	}, labels...)
	r.CounterFunc("device_checkpoints_total", func() int64 {
		w, _, _ := d.CheckpointStats()
		return w
	}, labels...)
	r.GaugeFunc("device_checkpoint_age_writes", func() float64 {
		_, _, age := d.CheckpointStats()
		return float64(age)
	}, labels...)
	r.GaugeFunc("device_checkpoint_age_seconds", func() float64 {
		var oldest time.Duration
		for _, ch := range d.channels {
			if a := ch.CheckpointAge(); a > oldest {
				oldest = a
			}
		}
		return oldest.Seconds()
	}, labels...)
}

// PageSize returns the read unit (8 KB).
func (d *Device) PageSize() int { return d.channels[0].PageSize() }

// BlockSize returns the write/erase unit (8 MB).
func (d *Device) BlockSize() int { return d.channels[0].BlockSize() }

// BlocksPerChannel returns the logical blocks addressable per channel.
func (d *Device) BlocksPerChannel() int { return d.channels[0].LogicalBlocks() }

// Capacity returns usable capacity in bytes across all channels.
func (d *Device) Capacity() int64 {
	return int64(len(d.channels)) * d.channels[0].Capacity()
}

// RawCapacity returns raw flash capacity in bytes.
func (d *Device) RawCapacity() int64 {
	return int64(len(d.channels)) * d.channels[0].RawCapacity()
}

// RawReadBandwidth returns the aggregate channel-bus-limited read
// bandwidth in bytes/s (the paper's 1.67 GB/s raw figure).
func (d *Device) RawReadBandwidth() float64 {
	cfg := d.cfg.Channel
	page := float64(cfg.Nand.PageSize)
	perPage := cfg.BusOverhead.Seconds() + page/cfg.BusRate
	return float64(len(d.channels)) * page / perPage
}

// RawWriteBandwidth returns the aggregate program-limited write
// bandwidth in bytes/s (the paper's 1.01 GB/s raw figure).
func (d *Device) RawWriteBandwidth() float64 {
	cfg := d.cfg.Channel
	planes := float64(cfg.Chips * cfg.Nand.Planes)
	return float64(len(d.channels)) * planes * float64(cfg.Nand.PageSize) / cfg.Nand.TProg.Seconds()
}

// PCIe returns the host interface, for instrumentation.
func (d *Device) PCIe() *hostif.Interface { return d.pcie }

func (d *Device) checkChannel(ch int) error {
	if ch < 0 || ch >= len(d.channels) {
		return fmt.Errorf("core: channel %d of %d", ch, len(d.channels))
	}
	return nil
}

// Read performs a page-aligned read of size bytes at byte offset off
// within logical block lbn of channel ch. The flash read and the PCIe
// DMA to host memory are streamed concurrently.
func (d *Device) Read(p *sim.Proc, ch, lbn, off, size int) ([]byte, error) {
	if err := d.checkChannel(ch); err != nil {
		return nil, err
	}
	end := d.beginOp(p, "sdf/read")
	defer end()
	d.stack.Submit(p)
	t := d.env.Tracer()
	r := d.getReq()
	r.op, r.ch, r.lbn, r.off, r.size = p.Span(), ch, lbn, off, size
	flash := d.env.Start(&r.proc, "sdf/read", r.read)
	// DMA streams pages to host memory as the channel produces them;
	// modelled as a concurrent transfer of the full payload.
	dma := t.Begin(d.env.Now(), r.op, "pcie/to-host", trace.PhaseBus)
	d.pcie.ToHost(p, size)
	t.End(d.env.Now(), dma)
	p.Join(flash)
	data, chErr := r.out, r.err
	d.putReq(r)
	if chErr != nil {
		d.stack.Abort()
		return nil, chErr
	}
	d.stack.Complete(p)
	return data, nil
}

// Write programs one full logical block on channel ch. The block must
// have been erased. data may be nil in timing-only mode. The write is
// synchronous: it completes only when the flash program finishes
// (SDF has no DRAM write cache; §2.2).
func (d *Device) Write(p *sim.Proc, ch, lbn int, data []byte) error {
	return d.write(p, ch, lbn, data, false, nil)
}

// EraseWrite erases and then programs a logical block as one command,
// the block layer's standard write path.
func (d *Device) EraseWrite(p *sim.Proc, ch, lbn int, data []byte) error {
	return d.write(p, ch, lbn, data, true, nil)
}

// WriteTagged is Write with a 128-bit write ID stamped into the
// out-of-band area of every page, for mount-time recovery.
func (d *Device) WriteTagged(p *sim.Proc, ch, lbn int, data []byte, id flashchan.WriteID) error {
	return d.write(p, ch, lbn, data, false, &id)
}

// EraseWriteTagged is EraseWrite with a write ID (see WriteTagged).
func (d *Device) EraseWriteTagged(p *sim.Proc, ch, lbn int, data []byte, id flashchan.WriteID) error {
	return d.write(p, ch, lbn, data, true, &id)
}

func (d *Device) write(p *sim.Proc, ch, lbn int, data []byte, erase bool, tag *flashchan.WriteID) error {
	if err := d.checkChannel(ch); err != nil {
		return err
	}
	name := "sdf/write"
	if erase {
		name = "sdf/erase-write"
	}
	end := d.beginOp(p, name)
	defer end()
	d.stack.Submit(p)
	t := d.env.Tracer()
	r := d.getReq()
	r.op, r.ch, r.lbn, r.data, r.erase = p.Span(), ch, lbn, data, erase
	if r.tagged = tag != nil; r.tagged {
		r.tag = *tag // by value: a kept pointer would put the caller's ID on the heap
	}
	flash := d.env.Start(&r.proc, "sdf/write", r.prog)
	dma := t.Begin(d.env.Now(), r.op, "pcie/to-device", trace.PhaseBus)
	d.pcie.ToDevice(p, d.BlockSize())
	t.End(d.env.Now(), dma)
	p.Join(flash)
	chErr := r.err
	d.putReq(r)
	if chErr != nil {
		d.stack.Abort()
		return chErr
	}
	d.stack.Complete(p)
	return nil
}

// ScanFilter performs an in-storage filtered scan of one logical
// block: the channel engine reads and filters the block, and only the
// matching bytes cross PCIe to the host ("moving compute to the
// storage", §5). It returns the matched byte count.
func (d *Device) ScanFilter(p *sim.Proc, ch, lbn int, selectivity float64) (int, error) {
	if err := d.checkChannel(ch); err != nil {
		return 0, err
	}
	end := d.beginOp(p, "sdf/scan-filter")
	defer end()
	d.stack.Submit(p)
	matched, err := d.channels[ch].ScanFilter(p, lbn, selectivity)
	if err != nil {
		d.stack.Abort()
		return 0, err
	}
	if matched > 0 {
		t := d.env.Tracer()
		dma := t.Begin(d.env.Now(), p.Span(), "pcie/to-host", trace.PhaseBus)
		d.pcie.ToHost(p, matched)
		t.End(d.env.Now(), dma)
	}
	d.stack.Complete(p)
	return matched, nil
}

// Erase invalidates and prepares logical block lbn of channel ch; the
// software schedules these explicitly, typically during idle periods
// (§2.3).
func (d *Device) Erase(p *sim.Proc, ch, lbn int) error {
	if err := d.checkChannel(ch); err != nil {
		return err
	}
	end := d.beginOp(p, "sdf/erase")
	defer end()
	d.stack.Submit(p)
	if err := d.channels[ch].Erase(p, lbn); err != nil {
		d.stack.Abort()
		return err
	}
	d.stack.Complete(p)
	return nil
}

// Counters sums per-channel traffic.
func (d *Device) Counters() (read, written, erased int64) {
	for _, ch := range d.channels {
		r, w, e := ch.Counters()
		read += r
		written += w
		erased += e
	}
	return read, written, erased
}
