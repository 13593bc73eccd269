// Package nand models NAND flash chips: the timing, geometry, and
// reliability behaviour of the 25 nm MLC parts on the SDF card (two
// chips per channel, two planes per chip, 8 KB pages, 2 MB erase
// blocks; Table 3 of the paper).
//
// The model enforces real NAND constraints — erase-before-program,
// strictly sequential page programming within a block, plane-level
// operation serialization — and provides wear tracking, endurance-
// driven bad-block conversion, and wear-dependent bit-error injection
// for exercising the BCH path.
//
// Cell state lives in a Media object separable from the Chip: a chip
// is the powered controller-facing view, the media is what the cells
// retain across power loss. PowerOff halts a chip mid-operation
// (tearing in-flight programs and erases); Mount rebuilds a fresh
// chip over the surviving media in a new simulation environment.
package nand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Operation errors.
var (
	ErrBadBlock   = errors.New("nand: block is marked bad")
	ErrNotErased  = errors.New("nand: programming a page in a non-erased slot")
	ErrOutOfOrder = errors.New("nand: pages must be programmed sequentially within a block")
	ErrUnwritten  = errors.New("nand: reading an unwritten page")
	ErrOutOfRange = errors.New("nand: address out of range")
	ErrWornOut    = errors.New("nand: block exceeded its program/erase endurance")
	ErrPowerLoss  = errors.New("nand: chip lost power")
	ErrTornPage   = errors.New("nand: page program was cut by power loss")
)

// Params describes a chip's geometry, timing, and reliability model.
type Params struct {
	PageSize       int // bytes per page
	PagesPerBlock  int
	BlocksPerPlane int
	Planes         int // planes per chip

	TRead  time.Duration // array read: cell to page register
	TProg  time.Duration // program: page register to cells
	TErase time.Duration // block erase

	// EraseLimit is the nominal P/E endurance. Individual blocks get an
	// endurance sampled around this value; exceeding it turns the block
	// bad at the next erase. Zero disables wear-out.
	EraseLimit int

	// RetainData stores page payloads so reads return real bytes.
	// When false the chip is timing-only (large sweeps stay cheap).
	RetainData bool

	// BaseBER and WearBER set the raw bit error rate injected into
	// reads in data mode: BER = BaseBER + WearBER * (wear/EraseLimit)^2.
	// Zero disables error injection.
	BaseBER float64
	WearBER float64

	Seed int64
}

// MLC25nm returns parameters for the paper's 25 nm MLC parts: 8 KB
// pages, 2 MB blocks, 2 planes, 8 GB per chip, tR=75 µs (§4.3),
// tErase=3 ms (§2.3). tProg is calibrated at 1.4 ms so that a
// channel's four planes sustain the paper's 1.01 GB/s aggregate raw
// write bandwidth (§3.2).
func MLC25nm() Params {
	return Params{
		PageSize:       8 << 10,
		PagesPerBlock:  256,  // 2 MB erase block
		BlocksPerPlane: 2048, // 4 GB plane, 8 GB chip
		Planes:         2,
		TRead:          75 * time.Microsecond,
		TProg:          1400 * time.Microsecond,
		TErase:         3 * time.Millisecond,
		EraseLimit:     3000,
	}
}

// BlockBytes returns the erase-block size in bytes.
func (p Params) BlockBytes() int { return p.PageSize * p.PagesPerBlock }

// ChipBytes returns the chip's raw capacity in bytes.
func (p Params) ChipBytes() int64 {
	return int64(p.BlockBytes()) * int64(p.BlocksPerPlane) * int64(p.Planes)
}

// block is the per-erase-block state.
type block struct {
	eraseCount int
	endurance  int // this block's individual P/E limit
	writePtr   int // next programmable page index; -1 if never erased
	bad        bool
}

// SpareSource renders out-of-band bytes on demand: Spare(i) returns a
// fresh copy of what the source's i-th page carries. A command whose
// pages' spares follow from a few words of state (a block write: one ID
// and sequence number, the page number, a flag on the last page) hands
// the media one source instead of a record per page, and must not change
// it while a run refers to it. Each SettleProgramRun or PreloadSpares
// given a source owes it one Release — when the block is next erased, or
// at once if no page was retained — so the owner of a source shared by
// several runs knows when it may reuse it.
type SpareSource interface {
	Spare(i int) []byte
	Release()
}

// literalSpare is the source of a page programmed with explicit bytes.
type literalSpare []byte

func (l *literalSpare) Spare(int) []byte { return append([]byte(nil), *l...) }
func (l *literalSpare) Release()         {}

// spareRun is the out-of-band state a block retains, by value: pages
// [first, first+n) carry src's pages base, base+1, ...
type spareRun struct {
	first, n, base int32
	src            SpareSource
}

func (r *spareRun) spare(page int) []byte {
	if r.src == nil || page < int(r.first) || page >= int(r.first+r.n) {
		return nil
	}
	return r.src.Spare(int(r.base) + page - int(r.first))
}

// runList is the source of a block programmed by more than one command
// (a checkpoint slot's chunks, one literal page each): the block's run
// spans them all and page i of it is looked up here.
type runList struct{ runs []spareRun }

func (l *runList) Spare(i int) []byte {
	page := int(l.runs[0].first) + i
	for k := range l.runs {
		if sp := l.runs[k].spare(page); sp != nil {
			return sp
		}
	}
	return nil
}

func (l *runList) Release() {
	for _, r := range l.runs {
		r.src.Release()
	}
}

// planeMedia is one plane's persistent cell state: what the silicon
// retains when power is cut.
type planeMedia struct {
	blocks []block
	data   map[int64][]byte // pageIndex -> payload (RetainData mode)
	spares []spareRun       // per block: its out-of-band bytes
	torn   map[int64]bool   // pages whose program pulse power loss cut
	// interruptedErases counts erase pulses cut by power loss; the
	// recovery scan reports them as partially-erased blocks.
	interruptedErases int
}

// addSpares records that pages [first, first+n) of a block carry src's
// pages from base on; with no page to carry them, src is released at
// once. A block's first run is stored in place; later ones fold it into
// a runList.
func (pm *planeMedia) addSpares(blockIdx, first, n, base int, src SpareSource) {
	if n == 0 {
		src.Release()
		return
	}
	run := spareRun{int32(first), int32(n), int32(base), src}
	r := &pm.spares[blockIdx]
	if r.src == nil {
		*r = run
		return
	}
	list, ok := r.src.(*runList)
	if !ok {
		list = &runList{runs: []spareRun{*r}}
		*r = spareRun{first: r.first, src: list}
	}
	list.runs = append(list.runs, run)
	r.n = run.first + run.n - r.first
}

// wipe clears one block's retained pages (payloads, spares, torn
// marks), as an erase pulse does. The per-page map walks are guarded
// so the common case — timing-only media with no torn pages — erases
// without map traffic.
func (pm *planeMedia) wipe(blockIdx, pagesPerBlock int) {
	if r := &pm.spares[blockIdx]; r.src != nil {
		r.src.Release()
		*r = spareRun{}
	}
	base := int64(blockIdx) * int64(pagesPerBlock)
	if pm.data != nil {
		for i := 0; i < pagesPerBlock; i++ {
			delete(pm.data, base+int64(i))
		}
	}
	if len(pm.torn) > 0 {
		for i := 0; i < pagesPerBlock; i++ {
			delete(pm.torn, base+int64(i))
		}
	}
}

// Media is a chip's persistent state. It survives Env teardown: after
// a power loss, hand the Media of the dead chip to Mount to rebuild a
// chip over the same cells in a fresh environment.
type Media struct {
	params Params
	planes []*planeMedia
}

// Plane is an independently operable flash plane. At most one array
// operation (read, program, erase) is active per plane at a time; the
// page cache register lets the controller overlap the next array read
// with the previous bus transfer, which the channel engine exploits.
type Plane struct {
	chip  *Chip
	index int
	tl    *sim.Timeline
	m     *planeMedia
}

// Chip is a NAND flash chip with Params.Planes independent planes.
type Chip struct {
	env      *sim.Env
	params   Params
	media    *Media
	planes   []*Plane
	rng      *rand.Rand
	berBoost float64 // injected extra raw BER (uncorrectable-ECC bursts)

	off   bool          // power has been cut
	offAt time.Duration // instant the power died

	reads    int64
	programs int64
	erases   int64
}

// New creates a chip. New blocks start un-erased (writePtr = -1): real
// flash ships erased, but requiring an explicit initial erase keeps the
// accounting uniform; FTLs erase blocks before first use anyway.
func New(env *sim.Env, params Params) *Chip {
	rng := rand.New(rand.NewSource(params.Seed))
	m := &Media{params: params}
	for i := 0; i < params.Planes; i++ {
		pm := &planeMedia{
			blocks: make([]block, params.BlocksPerPlane),
			spares: make([]spareRun, params.BlocksPerPlane),
			torn:   make(map[int64]bool),
		}
		if params.RetainData {
			pm.data = make(map[int64][]byte)
		}
		for b := range pm.blocks {
			pm.blocks[b].writePtr = -1
			pm.blocks[b].endurance = sampleEndurance(params, rng)
		}
		m.planes = append(m.planes, pm)
	}
	return mount(env, params, m, rng)
}

// Mount rebuilds a chip over media that survived a power loss, in a
// fresh environment. Geometry must match the media's; endurance and
// bad-block state are not re-sampled — they live in the media. The
// error-injection RNG restarts from Seed, which is itself
// deterministic: the same pre-crash run plus the same crash instant
// replays to the same post-mount error stream.
func Mount(env *sim.Env, params Params, m *Media) (*Chip, error) {
	mp := m.params
	if mp.PageSize != params.PageSize || mp.PagesPerBlock != params.PagesPerBlock ||
		mp.BlocksPerPlane != params.BlocksPerPlane || mp.Planes != params.Planes ||
		mp.RetainData != params.RetainData {
		return nil, fmt.Errorf("nand: mount geometry mismatch: media %dx%dx%d planes=%d data=%v, params %dx%dx%d planes=%d data=%v",
			mp.PageSize, mp.PagesPerBlock, mp.BlocksPerPlane, mp.Planes, mp.RetainData,
			params.PageSize, params.PagesPerBlock, params.BlocksPerPlane, params.Planes, params.RetainData)
	}
	return mount(env, params, m, rand.New(rand.NewSource(params.Seed))), nil
}

func mount(env *sim.Env, params Params, m *Media, rng *rand.Rand) *Chip {
	c := &Chip{
		env:    env,
		params: params,
		media:  m,
		rng:    rng,
	}
	for i := 0; i < params.Planes; i++ {
		c.planes = append(c.planes, &Plane{
			chip:  c,
			index: i,
			tl:    sim.NewTimeline(env, 1),
			m:     m.planes[i],
		})
	}
	return c
}

// sampleEndurance draws a per-block endurance around EraseLimit
// (normal, sigma = 10%), reflecting process variation.
func sampleEndurance(params Params, rng *rand.Rand) int {
	if params.EraseLimit <= 0 {
		return math.MaxInt
	}
	e := float64(params.EraseLimit) * (1 + 0.1*rng.NormFloat64())
	if e < 1 {
		e = 1
	}
	return int(e)
}

// Media returns the chip's persistent cell state, for handing to
// Mount after a power loss.
func (c *Chip) Media() *Media { return c.media }

// PowerOff cuts the chip's power at the current instant; there is no
// power-on — recovery is by Mount-ing the Media into a fresh chip.
// Operations already past their admission check resolve when their
// array pulse would have completed: a program whose pulse had begun
// leaves a torn page (counted in the write pointer, no payload or
// spare retained, reads as ErrTornPage after remount; the boundary
// instants are SettleProgramRun's to state), an erase
// mid-pulse leaves a partially-erased block (wear charged, retained
// pages gone, block needs a fresh erase). Pulses that had not started
// leave no trace. All resolutions return ErrPowerLoss.
func (c *Chip) PowerOff() {
	if !c.off {
		c.off = true
		c.offAt = c.env.Now()
	}
}

// PoweredOff reports whether the chip's power has been cut.
func (c *Chip) PoweredOff() bool { return c.off }

// SetBERBoost adds an extra raw bit error rate on top of the wear
// model, independent of RetainData. Fault plans use it to simulate an
// uncorrectable-ECC burst (read-disturb storm, marginal cell
// population); setting it back to 0 ends the burst. Requires data
// mode for the errors to materialize in payloads.
func (c *Chip) SetBERBoost(ber float64) {
	if ber < 0 {
		ber = 0
	}
	c.berBoost = ber
}

// Plane returns plane i.
func (c *Chip) Plane(i int) *Plane { return c.planes[i] }

// Planes returns the number of planes.
func (c *Chip) Planes() int { return len(c.planes) }

// Counters returns cumulative (reads, programs, erases) across planes.
func (c *Chip) Counters() (reads, programs, erases int64) {
	return c.reads, c.programs, c.erases
}

func (pl *Plane) checkAddr(blockIdx, page int) error {
	if blockIdx < 0 || blockIdx >= len(pl.m.blocks) {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, blockIdx, len(pl.m.blocks))
	}
	if page < 0 || page >= pl.chip.params.PagesPerBlock {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, pl.chip.params.PagesPerBlock)
	}
	return nil
}

func (pl *Plane) pageIndex(blockIdx, page int) int64 {
	return int64(blockIdx)*int64(pl.chip.params.PagesPerBlock) + int64(page)
}

// ReadPage performs an array read of one page, taking TRead of plane
// time. In data mode it returns the stored payload with wear-dependent
// bit errors injected (zeros for a page programmed without one); in
// timing-only mode it returns nil.
func (pl *Plane) ReadPage(p *sim.Proc, blockIdx, page int) ([]byte, error) {
	if err := pl.readable(blockIdx, page); err != nil {
		return nil, err
	}
	pl.tl.Occupy(p, pl.chip.params.TRead)
	if pl.chip.off {
		return nil, fmt.Errorf("%w: plane %d", ErrPowerLoss, pl.index)
	}
	var out []byte
	if pl.m.data != nil {
		out = make([]byte, pl.chip.params.PageSize)
	}
	if _, err := pl.Sense(blockIdx, page, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadableRun is the admission check of k array reads of consecutive
// pages from first in a block — the pages of one channel command on
// this plane — in one call: the address, power, and the write pointer.
// It returns how many pages lead the run before the first one that
// fails, and that page's error (nil when all k pass). The caller lays
// the admitted pages' plane slots out on Timeline itself, owning the
// plane until the last one ends, and senses them with Sense (data
// mode) or SenseRun (timing-only); the cells cannot change in between.
func (pl *Plane) ReadableRun(blockIdx, first, k int) (int, error) {
	if err := pl.readable(blockIdx, first); err != nil {
		return 0, err
	}
	n := min(k, pl.m.blocks[blockIdx].writePtr-first, pl.chip.params.PagesPerBlock-first)
	if n == k {
		return k, nil
	}
	return n, pl.readable(blockIdx, first+n)
}

// SenseRun is Sense for the n admitted pages from first of a block on
// timing-only media, where a read delivers nothing but its verdict: it
// counts the reads that lead the run up to the first torn page and
// returns how many there are, with the torn page's error.
func (pl *Plane) SenseRun(blockIdx, first, n int) (int, error) {
	if len(pl.m.torn) > 0 {
		for i := 0; i < n; i++ {
			if pl.m.torn[pl.pageIndex(blockIdx, first+i)] {
				pl.chip.reads += int64(i)
				return i, pl.tornErr(blockIdx, first+i)
			}
		}
	}
	pl.chip.reads += int64(n)
	return n, nil
}

// readable is the admission check of an array read.
func (pl *Plane) readable(blockIdx, page int) error {
	if err := pl.checkAddr(blockIdx, page); err != nil {
		return err
	}
	if pl.chip.off {
		return fmt.Errorf("%w: plane %d", ErrPowerLoss, pl.index)
	}
	if page >= pl.m.blocks[blockIdx].writePtr {
		return fmt.Errorf("%w: plane %d block %d page %d", ErrUnwritten, pl.index, blockIdx, page)
	}
	return nil
}

// Sense is what the array read of an admitted page delivers: the
// torn-page verdict, the read count, and in data mode the payload with
// wear-dependent bit errors injected, written into dst (PageSize
// bytes). It reports whether the page holds a payload; when it does
// not, dst is zero-filled and no bit errors are drawn.
func (pl *Plane) Sense(blockIdx, page int, dst []byte) (stored bool, err error) {
	idx := pl.pageIndex(blockIdx, page)
	if pl.m.torn[idx] {
		return false, pl.tornErr(blockIdx, page)
	}
	pl.chip.reads++
	if pl.m.data == nil {
		return false, nil
	}
	payload, ok := pl.m.data[idx]
	if !ok {
		clear(dst)
		return false, nil
	}
	copy(dst, payload)
	pl.injectErrors(dst, pl.m.blocks[blockIdx].eraseCount)
	return true, nil
}

func (pl *Plane) tornErr(blockIdx, page int) error {
	return fmt.Errorf("%w: plane %d block %d page %d", ErrTornPage, pl.index, blockIdx, page)
}

// injectErrors flips a Poisson-distributed number of random bits, with
// rate growing quadratically in wear.
func (pl *Plane) injectErrors(data []byte, wear int) {
	pp := pl.chip.params
	ber := pp.BaseBER + pl.chip.berBoost
	if pp.WearBER > 0 && pp.EraseLimit > 0 {
		frac := float64(wear) / float64(pp.EraseLimit)
		ber += pp.WearBER * frac * frac
	}
	if ber <= 0 || len(data) == 0 {
		return
	}
	bits := float64(len(data) * 8)
	n := poisson(pl.chip.rng, ber*bits)
	for i := 0; i < n; i++ {
		pos := pl.chip.rng.Intn(len(data) * 8)
		data[pos/8] ^= 1 << (7 - uint(pos%8))
	}
}

// poisson samples a Poisson variate by Knuth's method (lambda is small
// here: a raw BER of 1e-4 on an 8 KB page gives lambda ~ 6.5).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Program writes one page, taking TProg of plane time. Pages within a
// block must be programmed strictly in order into an erased block, as
// on real NAND. data may be nil in timing-only mode.
func (pl *Plane) Program(p *sim.Proc, blockIdx, page int, data []byte) error {
	return pl.ProgramOOB(p, blockIdx, page, data, nil)
}

// ProgramOOB writes one page plus its out-of-band spare-area bytes —
// the channel FTL's recovery metadata (write ID, sequence, CRC). The
// spare is programmed in the same pulse as the page, so power loss
// either retains both or tears both; a torn page retains neither.
func (pl *Plane) ProgramOOB(p *sim.Proc, blockIdx, page int, data, spare []byte) error {
	if err := pl.Programmable(blockIdx, page, data); err != nil {
		return err
	}
	pl.tl.Occupy(p, pl.chip.params.TProg)
	return pl.SettleProgram(blockIdx, page, pl.chip.env.Now()-pl.chip.params.TProg, data, spare)
}

// Programmable is the admission check of a page program: the address,
// power, the block's health and erase state, in-order programming, and
// the payload size. ProgramOOB runs it before its pulse; a channel
// engine that schedules a whole block's pulses on Timeline and settles
// them with SettleProgramRun runs it for the first page.
func (pl *Plane) Programmable(blockIdx, page int, data []byte) error {
	if err := pl.checkAddr(blockIdx, page); err != nil {
		return err
	}
	if pl.chip.off {
		return fmt.Errorf("%w: plane %d", ErrPowerLoss, pl.index)
	}
	b := &pl.m.blocks[blockIdx]
	if b.bad {
		return fmt.Errorf("%w: plane %d block %d", ErrBadBlock, pl.index, blockIdx)
	}
	if b.writePtr < 0 {
		return fmt.Errorf("%w: plane %d block %d", ErrNotErased, pl.index, blockIdx)
	}
	if page != b.writePtr {
		return fmt.Errorf("%w: plane %d block %d page %d, expected %d",
			ErrOutOfOrder, pl.index, blockIdx, page, b.writePtr)
	}
	if data != nil && len(data) != pl.chip.params.PageSize {
		return fmt.Errorf("nand: program payload %d bytes, want %d", len(data), pl.chip.params.PageSize)
	}
	return nil
}

// SettleProgram is SettleProgramRun for one page carrying explicit
// out-of-band bytes (nil for none).
func (pl *Plane) SettleProgram(blockIdx, page int, pulseStart time.Duration, data, spare []byte) error {
	var src SpareSource
	if spare != nil {
		lit := literalSpare(append([]byte(nil), spare...))
		src = &lit
	}
	_, err := pl.SettleProgramRun(blockIdx, page, Pulses{TailStart: pulseStart, Tail: 1}, data, src, 0)
	return err
}

// Pulses is the schedule of a run of program pulses, one per page, in
// ascending order: the Stepped starts, then Tail more, one every TProg
// from TailStart. A channel engine lists the pulses it laid out one by
// one and gives the periodic rest in closed form, so a block's schedule
// costs the same to hold and to settle whatever its length.
type Pulses struct {
	Stepped   []time.Duration
	TailStart time.Duration
	Tail      int
}

// Len returns the number of pulses.
func (ps Pulses) Len() int { return len(ps.Stepped) + ps.Tail }

// At returns the start of pulse i for a pulse period of tProg.
func (ps Pulses) At(i int, tProg time.Duration) time.Duration {
	if i < len(ps.Stepped) {
		return ps.Stepped[i]
	}
	return ps.TailStart + time.Duration(i-len(ps.Stepped))*tProg
}

// startedBy returns how many pulses start at or before instant at.
func (ps Pulses) startedBy(at, tProg time.Duration) int {
	n := 0
	for n < len(ps.Stepped) && ps.Stepped[n] <= at {
		n++
	}
	if n < len(ps.Stepped) || at < ps.TailStart || ps.Tail == 0 {
		return n
	}
	return n + min(ps.Tail, int((at-ps.TailStart)/tProg)+1)
}

// SettleProgramRun resolves the program pulses that held the plane over
// [pulses.At(i), pulses.At(i)+TProg), in ascending order, for pages
// first, first+1, ... of a block — the one place the power-cut rule for
// programs lives. On a powered chip every page is programmed: the write
// pointer advances, the cells retain the payload (data mode; data holds
// the pages back to back, or is nil) and page first+i carries src's
// spare base+i (src may be nil). On a chip that lost power the run stops
// at the first pulse the cut reached. A pulse ending at the very instant
// of the cut completed: pages whose pulse ended at or before it are
// programmed; the next is torn if its pulse began strictly before it —
// counted in the write pointer, neither payload nor spare retained,
// ErrTornPage after remount — and untouched if not; nothing later leaves
// a trace. It returns how many pages were programmed, with ErrPowerLoss
// if not all. It takes no simulated time and may run at or after the
// pulses' ends, on a dead chip too: ProgramOOB calls it when its pulse
// ends, a channel engine that laid a block's pulses out ahead when its
// command wakes or the power dies. first must be the block's next page
// (Programmable).
func (pl *Plane) SettleProgramRun(blockIdx, first int, pulses Pulses, data []byte, src SpareSource, base int) (int, error) {
	c := pl.chip
	tProg := c.params.TProg
	total := pulses.Len()
	n, torn := total, false
	if c.off {
		n = pulses.startedBy(c.offAt-tProg, tProg) // ended by the cut
		torn = n < total && pulses.At(n, tProg) < c.offAt
	}
	b := &pl.m.blocks[blockIdx]
	b.writePtr += n
	c.programs += int64(n)
	if pl.m.data != nil && data != nil {
		for i, size := 0, c.params.PageSize; i < n; i++ {
			pl.m.data[pl.pageIndex(blockIdx, first+i)] = append([]byte(nil), data[i*size:(i+1)*size]...)
		}
	}
	if src != nil {
		pl.m.addSpares(blockIdx, first, n, base, src)
	}
	if torn {
		b.writePtr++
		pl.m.torn[pl.pageIndex(blockIdx, first+n)] = true
	}
	if n < total {
		return n, fmt.Errorf("%w: plane %d block %d page %d", ErrPowerLoss, pl.index, blockIdx, first+n)
	}
	return n, nil
}

// Erase erases a block, taking TErase of plane time. A block whose
// erase count passes its endurance becomes bad and returns ErrWornOut;
// the caller (the channel engine's bad block manager) must retire it.
func (pl *Plane) Erase(p *sim.Proc, blockIdx int) error {
	if err := pl.Erasable(blockIdx); err != nil {
		return err
	}
	env := pl.chip.env
	span := env.Tracer().Begin(env.Now(), p.Span(), "nand/erase", trace.PhaseFlash)
	pl.tl.Occupy(p, pl.chip.params.TErase)
	env.Tracer().End(env.Now(), span)
	return pl.SettleErase(blockIdx, env.Now()-pl.chip.params.TErase)
}

// Erasable is the admission check of a block erase: the address, the
// block's health, power.
func (pl *Plane) Erasable(blockIdx int) error {
	if err := pl.checkAddr(blockIdx, 0); err != nil {
		return err
	}
	if pl.m.blocks[blockIdx].bad {
		return fmt.Errorf("%w: plane %d block %d", ErrBadBlock, pl.index, blockIdx)
	}
	if pl.chip.off {
		return fmt.Errorf("%w: plane %d", ErrPowerLoss, pl.index)
	}
	return nil
}

// SettleErase applies the erase pulse [pulseStart, now) of a block that
// passed Erasable, at the pulse's end. With the power on, the block is
// erased (ErrWornOut past its endurance). If the power died during the
// pulse, the cells are partially erased: wear charged, retained pages
// gone, a fresh erase needed before reuse; a pulse that never started
// leaves no trace. Both return ErrPowerLoss.
func (pl *Plane) SettleErase(blockIdx int, pulseStart time.Duration) error {
	c, b := pl.chip, &pl.m.blocks[blockIdx]
	if c.off && pulseStart >= c.offAt {
		return fmt.Errorf("%w: plane %d block %d", ErrPowerLoss, pl.index, blockIdx)
	}
	b.eraseCount++
	pl.m.wipe(blockIdx, c.params.PagesPerBlock)
	b.writePtr, b.bad = -1, b.eraseCount > b.endurance
	if c.off {
		pl.m.interruptedErases++
		return fmt.Errorf("%w: plane %d block %d", ErrPowerLoss, pl.index, blockIdx)
	}
	c.erases++
	if b.bad {
		return fmt.Errorf("%w: plane %d block %d after %d cycles", ErrWornOut, pl.index, blockIdx, b.eraseCount)
	}
	b.writePtr = 0
	return nil
}

// Preload marks a block as erased and its first pageCount pages as
// programmed, in zero simulated time and without payloads. It exists
// so experiments can start from a pre-filled device (e.g. "almost
// full", as in the paper's Figure 8 setup) without simulating hours of
// fill traffic. It must not be used in RetainData mode.
func (pl *Plane) Preload(blockIdx, pageCount int) error {
	if err := pl.checkAddr(blockIdx, 0); err != nil {
		return err
	}
	if pageCount < 0 || pageCount > pl.chip.params.PagesPerBlock {
		return fmt.Errorf("%w: preload %d pages", ErrOutOfRange, pageCount)
	}
	if pl.m.data != nil {
		return errors.New("nand: Preload is incompatible with RetainData")
	}
	b := &pl.m.blocks[blockIdx]
	if b.bad {
		return fmt.Errorf("%w: plane %d block %d", ErrBadBlock, pl.index, blockIdx)
	}
	b.writePtr = pageCount
	return nil
}

// PreloadSpares marks a block as erased with its first pageCount pages
// programmed and carrying src's spares base, base+1, ..., in zero
// simulated time and without payloads (timing-only mode, like Preload).
// The recovery experiment uses it to stage a pre-crash fill whose
// mount-time scan finds real metadata, without simulating the fill
// traffic.
func (pl *Plane) PreloadSpares(blockIdx, pageCount int, src SpareSource, base int) error {
	if err := pl.Preload(blockIdx, pageCount); err != nil {
		return err
	}
	pl.m.wipe(blockIdx, pl.chip.params.PagesPerBlock)
	pl.m.addSpares(blockIdx, 0, pageCount, base, src)
	return nil
}

// Spare returns the out-of-band bytes programmed with a page, or nil
// if the page is unwritten, torn, or carries no metadata. It costs no
// simulated time: recovery scans charge their own probe timing in
// bulk (flashchan.Recover).
func (pl *Plane) Spare(blockIdx, page int) []byte {
	if err := pl.checkAddr(blockIdx, page); err != nil {
		return nil
	}
	return pl.m.spares[blockIdx].spare(page)
}

// Torn reports whether a page's program pulse was cut by power loss.
func (pl *Plane) Torn(blockIdx, page int) bool {
	if err := pl.checkAddr(blockIdx, page); err != nil {
		return false
	}
	return pl.m.torn[pl.pageIndex(blockIdx, page)]
}

// InterruptedErases returns how many erase pulses power loss has cut
// on this plane.
func (pl *Plane) InterruptedErases() int { return pl.m.interruptedErases }

// EraseCount returns a block's cumulative program/erase cycles.
func (pl *Plane) EraseCount(blockIdx int) int { return pl.m.blocks[blockIdx].eraseCount }

// Bad reports whether a block is marked bad.
func (pl *Plane) Bad(blockIdx int) bool { return pl.m.blocks[blockIdx].bad }

// MarkBad retires a block explicitly (e.g. after persistent program
// failures observed by the controller).
func (pl *Plane) MarkBad(blockIdx int) { pl.m.blocks[blockIdx].bad = true }

// WritePtr returns the next programmable page index of a block, or -1
// if the block needs an erase first.
func (pl *Plane) WritePtr(blockIdx int) int { return pl.m.blocks[blockIdx].writePtr }

// Blocks returns the number of blocks in the plane.
func (pl *Plane) Blocks() int { return len(pl.m.blocks) }

// Timeline returns the plane's occupancy timeline (the channel
// recovery scan charges bulk probe time on it).
func (pl *Plane) Timeline() *sim.Timeline { return pl.tl }
