package flashchan

// Differential tests: the closed-form ReadAt/writeLocked/eraseLocked
// against the park-per-page reference in pipeline_ref_test.go. Same
// seeded case run through both must agree on every instant, span,
// counter and byte, and on the FTL state: mappings, free pools, wear.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// diffCmd is one command of a differential case.
type diffCmd struct {
	delay     time.Duration // issue instant, after the set-up writes
	kind      int           // 0 read, 1 erase-write, 2 erase then write, 3 erase
	lbn       int
	off, size int
	data      []byte
}

type diffCase struct {
	cfg    Config
	setup  [][]byte // payload per preloaded block (nil entries: timing-only)
	cmds   []diffCmd
	filler int // block written without a payload, -1 if none
	// torn is a block whose write a power cut stopped cutAfter into it,
	// -1 if none (see cutMedia).
	torn     int
	cutAfter time.Duration
	tornData []byte
	// busBound: the planes' transfers overrun TProg, so scheduleWrite's
	// workers never settle and every write is stepped page by page.
	busBound bool
	// slowRead: TRead exceeds a bus slot, so a read's plane runs never
	// turn steady and ReadAt walks every page.
	slowRead bool
	// wear erases cycle through the last logical blocks after the set-up
	// writes; with a low EraseLimit they retire worn-out blocks inside
	// erase commands and run planes' free pools dry.
	wear int
}

// diffResult is everything a run exposes that the two pipelines must
// agree on.
type diffResult struct {
	doneAt   []time.Duration
	errs     []string
	sums     []uint32 // CRC of each command's returned bytes
	lens     []int
	spans    []string
	busMoved int64
	lanes    string // the instants the bus and each plane next free
	counters string
	probe    []byte   // a final raw read: the chips' RNG streams, continued
	wear     []string // each wear erase's return instant and verdict
	endAt    time.Duration
	media    uint32 // CRC over every block's write pointer and every page's spare
	ftl      uint32 // CRC over the mappings, the free pools and every block's wear
	steps    int    // worker steps of the last write scheduled (closed form only)
	walked   int    // pages ReadAt stepped one at a time (closed form only)
}

// Case shapes: newDiffCase's short and long cases, and the read-tail
// ones.
const (
	shortCase = iota
	longCase
	tailCase
)

// newDiffCase draws a case: geometry and timing regime (the default
// program-bound one, a bus-bound one, and one whose bus slot divides
// TRead and TProg so transfers and pulses keep landing on the same
// instant), data mode, and 1–8 commands issued in a burst or staggered.
// A long case has 32- or 64-page blocks, so that a write's planes
// settle and scheduleWrite fills the rest of it, and no ECC (the codec
// is too slow for blocks that size); its tie regime gives TProg five or
// six bus slots, so the settled planes' transfers are exactly one slot
// apart.
//
// A tail case is timing-only, with 16-, 64- or 256-page blocks, and
// adds a full read of a set-up block, so that ReadAt's plane runs turn
// steady and it lays out their tails in closed form. Its regimes are
// the default, the tie one, and a slow-read one (TRead one bus slot
// plus 1 µs) in which the tail must never fire; two in three also read
// a block whose power cut lands a quarter to half way into its write,
// so the torn page sits inside each plane run's tail.
func newDiffCase(seed int64, shape int) diffCase {
	rng := rand.New(rand.NewSource(seed))
	cfg := smallConfig()
	cfg.Seed = seed
	cfg.Nand.PagesPerBlock = 4 << rng.Intn(2)
	cfg.PrioritizeReads = rng.Intn(2) == 0
	mode := rng.Intn(6)
	long, tail := shape == longCase, shape == tailCase
	switch shape {
	case longCase:
		cfg.Nand.PagesPerBlock = 32 << rng.Intn(2)
		mode = 1 + rng.Intn(5)
	case tailCase:
		cfg.Nand.PagesPerBlock = 16 << (2 * rng.Intn(3))
		mode = 4
	}
	busBound, slowRead := false, false
	switch {
	case mode == 0: // ECC + CRC over a noisy medium (slow codec: small pages)
		cfg.Nand.PageSize = 2 << 10
		cfg.Nand.PagesPerBlock = 4
		cfg.ECC, cfg.VerifyCRC = true, true
		cfg.Nand.BaseBER = 2e-4
	case mode <= 2: // raw bit errors, no codec: the RNG stream shows in the bytes
		cfg.Nand.BaseBER = 1e-4
		cfg.VerifyCRC = mode == 2 // most reads then fail their CRC, on a known page
	case mode == 3:
		cfg.VerifyCRC = true
	default:
		cfg.Nand.RetainData = false
	}
	switch rng.Intn(3) {
	case 1:
		if tail { // slow reads: TRead = 1 slot + 1 µs
			cfg.Nand.TRead = sim.ByteTime(cfg.Nand.PageSize, cfg.BusRate) + cfg.BusOverhead + time.Microsecond
			slowRead = true
			break
		}
		// bus-bound programs
		cfg.Nand.TProg = 100 * time.Microsecond
		busBound = true
	case 2: // ties: slot = 200 µs, TRead = 1 slot, TProg = 4 slots (5 or 6 if long or tail)
		cfg.BusOverhead = 0
		cfg.BusRate = float64(cfg.Nand.PageSize) / 200e-6
		cfg.Nand.TRead = sim.ByteTime(cfg.Nand.PageSize, cfg.BusRate)
		cfg.Nand.TProg = 4 * cfg.Nand.TRead
		if long || tail {
			cfg.Nand.TProg = time.Duration(5+rng.Intn(2)) * cfg.Nand.TRead
		}
	}
	c := diffCase{cfg: cfg, filler: -1, torn: -1, busBound: busBound, slowRead: slowRead}
	blockSize := cfg.Nand.PageSize * cfg.Nand.PagesPerBlock * cfg.Chips * cfg.Nand.Planes
	payload := func() []byte {
		if !cfg.Nand.RetainData {
			return nil
		}
		b := make([]byte, blockSize)
		rng.Read(b)
		return b
	}
	nset := 2 + rng.Intn(2)
	for i := 0; i < nset; i++ {
		c.setup = append(c.setup, payload())
	}
	if cfg.Nand.RetainData && !cfg.ECC {
		c.filler = nset // data mode, block programmed without payload
	}
	pages := blockSize / cfg.Nand.PageSize
	burst := rng.Intn(2) == 0
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		cmd := diffCmd{lbn: rng.Intn(nset + 2)} // two lbns start unwritten
		if !burst {
			cmd.delay = time.Duration(rng.Intn(3000)) * time.Microsecond
		}
		switch k := rng.Intn(10); {
		case k < 6:
			first := rng.Intn(pages)
			cmd.off = first * cfg.Nand.PageSize
			cmd.size = (1 + rng.Intn(pages-first)) * cfg.Nand.PageSize
		case k < 8:
			cmd.kind, cmd.data = 1, payload()
		default:
			cmd.kind, cmd.data = 2, payload()
		}
		c.cmds = append(c.cmds, cmd)
	}
	if tail {
		c.cmds = append(c.cmds, diffCmd{lbn: rng.Intn(nset), size: blockSize})
	}
	// Wear and plain erases come from a stream of their own, so the draws
	// above make the cases they always made.
	wrng := rand.New(rand.NewSource(^seed))
	if wrng.Intn(3) == 0 {
		c.cfg.Nand.EraseLimit = 1 + wrng.Intn(3)
		c.wear = 8 + wrng.Intn(40)
	}
	for i := range c.cmds {
		if c.cmds[i].kind == 2 && wrng.Intn(2) == 0 {
			c.cmds[i].kind = 3
		}
	}
	// A third of the cases also read a partially programmed block: the
	// power is cut mid-write, leaving each plane's write pointer
	// mid-block and its in-flight page torn, so reads of it fail in the
	// middle of a plane run. The cut lands anywhere from the write's
	// first transfer to a little past its end.
	if tornDraw := rng.Intn(3); tornDraw == 0 || tail && tornDraw == 1 {
		c.torn = nset + 1
		slot := sim.ByteTime(cfg.Nand.PageSize, cfg.BusRate) + cfg.BusOverhead
		span := time.Duration(cfg.Nand.PagesPerBlock) * (cfg.Nand.TProg + 4*slot)
		c.cutAfter = time.Duration(rng.Int63n(int64(span)))
		if tail {
			c.cutAfter = span/4 + c.cutAfter/4
		}
		c.tornData = payload()
		first := rng.Intn(pages)
		c.cmds = append(c.cmds,
			diffCmd{lbn: c.torn, size: blockSize},
			diffCmd{lbn: c.torn, off: first * cfg.Nand.PageSize, size: (1 + rng.Intn(pages-first)) * cfg.Nand.PageSize})
	}
	return c
}

// cutMedia erases and writes the torn block with the shipped pipeline
// in an environment of its own, cutting the power cutAfter into the
// write, and returns what survives and the physical block each plane
// gave the torn one.
func (c diffCase) cutMedia(t *testing.T) (*Persistent, []int) {
	env := sim.NewEnv()
	defer env.Close()
	ch, err := New(env, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("cut", func(p *sim.Proc) {
		if err := ch.Erase(p, c.torn); err != nil {
			t.Errorf("torn block erase: %v", err)
		}
		env.Schedule(c.cutAfter, ch.PowerOff)
		if err := ch.Write(p, c.torn, c.tornData); err != nil && !errors.Is(err, ErrPowerLoss) {
			t.Errorf("torn block write: %v", err)
		}
	})
	env.Run()
	phys := make([]int, len(ch.planes))
	for k := range ch.planes {
		phys[k] = ch.planes[k].mapping[c.torn]
	}
	return ch.Persistent(), phys
}

// mapTorn maps the torn block's cut generation back in after Recover,
// which discards a torn block into the free pool.
func (c diffCase) mapTorn(ch *Channel, phys []int) {
	for k := range ch.planes {
		ps := &ch.planes[k]
		ps.free.idx = slices.DeleteFunc(ps.free.idx, func(b int) bool { return b == phys[k] })
		ps.free.init()
		ps.mapping[c.torn] = phys[k]
	}
}

// run plays the case through the reference pipeline (ref) or the
// shipped one.
func (c diffCase) run(t *testing.T, ref bool) diffResult {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	col := trace.NewCollector()
	env.SetTracer(col)
	var ch *Channel
	var err error
	var tornPhys []int
	if c.torn >= 0 {
		var state *Persistent
		state, tornPhys = c.cutMedia(t)
		ch, err = Mount(env, c.cfg, state)
	} else {
		ch, err = New(env, c.cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	read, erase := ch.ReadAt, ch.Erase
	write := func(p *sim.Proc, lbn int, data []byte, tag *WriteID) error { return ch.write(p, lbn, data, tag, false) }
	eraseWrite := func(p *sim.Proc, lbn int, data []byte, tag *WriteID) error { return ch.write(p, lbn, data, tag, true) }
	if ref {
		read, erase, write, eraseWrite = ch.refReadAt, ch.refErase, ch.refWrite, ch.refEraseWrite
	}
	n := len(c.cmds)
	res := diffResult{
		doneAt: make([]time.Duration, n), errs: make([]string, n),
		sums: make([]uint32, n), lens: make([]int, n),
	}
	root := func(p *sim.Proc, name string) {
		p.SetSpan(col.Begin(env.Now(), 0, name, trace.PhaseOp))
	}
	env.Go("setup", func(p *sim.Proc) {
		root(p, "setup")
		if c.torn >= 0 {
			if _, err := ch.Recover(p); err != nil {
				t.Errorf("recover: %v", err)
			}
			c.mapTorn(ch, tornPhys)
		}
		for lbn, data := range c.setup {
			if err := eraseWrite(p, lbn, data, &WriteID{Lo: uint64(lbn + 1)}); err != nil {
				t.Errorf("setup write %d: %v", lbn, err)
			}
		}
		if c.filler >= 0 {
			if err := eraseWrite(p, c.filler, nil, nil); err != nil {
				t.Errorf("filler write: %v", err)
			}
		}
		for i := 0; i < c.wear; i++ {
			err := erase(p, ch.LogicalBlocks()-1-i%3)
			res.wear = append(res.wear, fmt.Sprint(env.Now(), err))
		}
		for i := range c.cmds {
			i, cmd := i, c.cmds[i]
			env.Go("cmd", func(p *sim.Proc) {
				p.Wait(cmd.delay)
				root(p, fmt.Sprintf("cmd%d", i))
				var out []byte
				var err error
				switch cmd.kind {
				case 0:
					out, err = read(p, cmd.lbn, cmd.off, cmd.size)
				case 1:
					err = eraseWrite(p, cmd.lbn, cmd.data, &WriteID{Hi: 7, Lo: uint64(i)})
				case 2:
					if err = erase(p, cmd.lbn); err == nil {
						err = write(p, cmd.lbn, cmd.data, nil)
					}
				default:
					err = erase(p, cmd.lbn)
				}
				res.doneAt[i] = env.Now()
				if err != nil {
					res.errs[i] = err.Error()
				}
				res.sums[i], res.lens[i] = crc32.ChecksumIEEE(out), len(out)
			})
		}
	})
	env.Run()
	res.endAt = env.Now()
	res.steps = ch.wr.steps
	res.walked = ch.walked
	res.spans = spanKeys(col)
	res.busMoved = ch.bus.Moved()
	res.lanes = fmt.Sprint(ch.bus.Free())
	for k := range ch.planes {
		res.lanes += fmt.Sprint(" ", ch.planes[k].plane.Timeline().Free())
	}
	for _, chip := range ch.chips {
		r, pr, er := chip.Counters()
		res.counters += fmt.Sprintf("chip %d/%d/%d ", r, pr, er)
	}
	rd, wr, er := ch.Counters()
	cor, fail := ch.ECCStats()
	res.counters += fmt.Sprintf("chan %d/%d/%d ecc %d/%d seq %d", rd, wr, er, cor, fail, ch.nextSeq)
	media := crc32.NewIEEE()
	for k := range ch.planes {
		pl := ch.planes[k].plane
		for b := 0; b < pl.Blocks(); b++ {
			fmt.Fprint(media, pl.WritePtr(b))
			for pg := 0; pg < c.cfg.Nand.PagesPerBlock; pg++ {
				fmt.Fprintf(media, "|%x", pl.Spare(b, pg))
			}
		}
	}
	res.media = media.Sum32()
	res.ftl = ftlSum(ch)
	// Continue each chip's RNG stream through one more read of block 0,
	// by the shipped pipeline on both sides: equal bytes (and, under
	// ECC, equal correction counts) mean equal RNG states.
	probe := env.Go("probe", func(p *sim.Proc) {
		out, err := ch.ReadAt(p, 0, 0, ch.BlockSize())
		res.probe = append(out, fmt.Sprint(err, ch.eccCorrected)...)
	})
	env.RunUntilDone(probe)
	return res
}

// ftlSum is a CRC over ch's FTL state and its media's wear: every
// plane's mapping and free pool in pop order, every block's erase count
// and bad mark, the plane's interrupted erases, and each chip's counts.
func ftlSum(ch *Channel) uint32 {
	h := crc32.NewIEEE()
	for k := range ch.planes {
		ps := &ch.planes[k]
		fmt.Fprint(h, ps.mapping, ps.free.idx, ps.plane.InterruptedErases())
		for b := 0; b < ps.plane.Blocks(); b++ {
			fmt.Fprint(h, ps.plane.EraseCount(b), ps.plane.Bad(b))
		}
	}
	for _, chip := range ch.chips {
		r, pr, er := chip.Counters()
		fmt.Fprint(h, r, pr, er)
	}
	return h.Sum32()
}

// spanKeys returns every closed span as "name start end parent-name",
// sorted: emission order and span IDs differ between the pipelines (one
// emits as it goes, the other at admission), the spans must not.
func spanKeys(col *trace.Collector) []string {
	type open struct {
		name, parent string
		at           time.Duration
	}
	names := map[trace.SpanID]string{0: "-"}
	opened := map[trace.SpanID]open{}
	var keys []string
	for _, ev := range col.Events() {
		switch ev.Kind {
		case trace.KindSpanBegin:
			names[ev.Span] = ev.Name
			opened[ev.Span] = open{name: ev.Name, parent: names[ev.Parent], at: ev.At}
		case trace.KindSpanEnd:
			o := opened[ev.Span]
			keys = append(keys, fmt.Sprintf("%s %d %d %s", o.name, o.at, ev.At, o.parent))
		}
	}
	sort.Strings(keys)
	return keys
}

// TestPipelineMatchesReference runs 60 short cases, then 24 long ones
// (seeds 61–84) in which the closed form fills each write past the
// point its planes settle — except in the bus-bound regime, where it
// must step every page — then 12 tail cases (seeds 85–96) in which
// ReadAt lays out the steady part of each plane run in closed form —
// except in the slow-read regime, where it must walk every page. Half
// the erase-then-write commands are plain erases, and a third of the
// cases first run 8–47 erases under an EraseLimit of 1–3, which retire
// worn-out blocks inside commands and run free pools dry mid-command.
func TestPipelineMatchesReference(t *testing.T) {
	short, long, tails := int64(60), int64(24), int64(12)
	if testing.Short() {
		short, long, tails = 12, 6, 3
	}
	for seed := int64(1); seed <= 84+tails; seed++ {
		if seed > short && seed <= 60 || seed > 60+long && seed <= 84 {
			continue
		}
		shape := shortCase
		switch {
		case seed > 84:
			shape = tailCase
		case seed > 60:
			shape = longCase
		}
		c := newDiffCase(seed, shape)
		want, got := c.run(t, true), c.run(t, false)
		// Stepped, every plane parks at least once per page.
		stepped := got.steps >= c.cfg.Nand.PagesPerBlock*c.cfg.Chips*c.cfg.Nand.Planes
		if seed > 60 && stepped != c.busBound {
			t.Errorf("seed %d: last write took %d worker steps; bus-bound %v, but filled %v", seed, got.steps, c.busBound, !stepped)
		}
		// Every sensed page has a nand/read span of TRead; the ones
		// ReadAt did not walk were laid out in its closed form.
		if shape == tailCase {
			sensed := 0
			for _, key := range got.spans {
				var name, parent string
				var start, end time.Duration
				if _, err := fmt.Sscan(key, &name, &start, &end, &parent); err == nil && name == "nand/read" && end > start {
					sensed++
				}
			}
			if tailed := sensed - got.walked; tailed > 0 == c.slowRead {
				t.Errorf("seed %d: reads walked %d of %d sensed pages; slow reads %v, but closed form laid out %d",
					seed, got.walked, sensed, c.slowRead, tailed)
			}
		}
		for i := range c.cmds {
			if want.doneAt[i] != got.doneAt[i] || want.errs[i] != got.errs[i] {
				t.Errorf("seed %d cmd %d (%+v): reference done at %v (%q), closed form at %v (%q)",
					seed, i, cmdShape(c.cmds[i]), want.doneAt[i], want.errs[i], got.doneAt[i], got.errs[i])
			}
			if want.sums[i] != got.sums[i] || want.lens[i] != got.lens[i] {
				t.Errorf("seed %d cmd %d: returned bytes differ (len %d vs %d)", seed, i, want.lens[i], got.lens[i])
			}
			if c.cmds[i].kind == 0 && got.errs[i] == "" && c.cfg.Nand.RetainData && got.lens[i] != c.cmds[i].size {
				t.Errorf("seed %d cmd %d: data-mode read returned %d bytes, want %d", seed, i, got.lens[i], c.cmds[i].size)
			}
		}
		if want.endAt != got.endAt {
			t.Errorf("seed %d: run ends at %v, reference %v", seed, got.endAt, want.endAt)
		}
		if want.busMoved != got.busMoved || want.counters != got.counters {
			t.Errorf("seed %d: counters differ:\n ref  %d %s\n got  %d %s", seed,
				want.busMoved, want.counters, got.busMoved, got.counters)
		}
		if want.lanes != got.lanes {
			t.Errorf("seed %d: bus and plane lanes free at %s, reference %s", seed, got.lanes, want.lanes)
		}
		if !bytes.Equal(want.probe, got.probe) {
			t.Errorf("seed %d: chip RNG streams diverged", seed)
		}
		if want.media != got.media {
			t.Errorf("seed %d: write pointers or out-of-band records on the media differ", seed)
		}
		if want.ftl != got.ftl {
			t.Errorf("seed %d: mappings, free pools or wear differ", seed)
		}
		if fmt.Sprint(want.wear) != fmt.Sprint(got.wear) {
			t.Errorf("seed %d: wear erases returned\n ref  %v\n got  %v", seed, want.wear, got.wear)
		}
		if len(want.spans) != len(got.spans) {
			t.Errorf("seed %d: %d spans, reference %d", seed, len(got.spans), len(want.spans))
			continue
		}
		for i := range want.spans {
			if want.spans[i] != got.spans[i] {
				t.Errorf("seed %d: span multiset differs at %d: reference %q, closed form %q",
					seed, i, want.spans[i], got.spans[i])
				break
			}
		}
	}
}

func cmdShape(c diffCmd) diffCmd { c.data = nil; return c }

// planeImage is what one plane's mapped block retains after a cut.
type planeImage struct {
	writePtr int
	torn     []bool
	spares   [][]byte
}

// cutOutcome is what cutRun observed.
type cutOutcome struct {
	images  []planeImage
	verdict error
	pulses  [][]time.Duration // the program pulse starts the closed form scheduled
	done    time.Duration     // the instant the command returned
	erases  []string          // the measured command's nand/erase spans (spanKeys)
	ftl     uint32            // ftlSum
}

// cutRun erases logical block 1 warm times, then starts one tagged
// erase-write of block 0, cuts the channel's power at the given instant,
// and returns what each plane of the new generation holds and the rest
// of a cutOutcome.
func cutRun(t *testing.T, cfg Config, data []byte, warm int, cut time.Duration, ref bool) cutOutcome {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	col := trace.NewCollector()
	env.SetTracer(col)
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	erase := ch.Erase
	eraseWrite := func(p *sim.Proc, lbn int, data []byte, tag *WriteID) error { return ch.write(p, lbn, data, tag, true) }
	if ref {
		erase, eraseWrite = ch.refErase, ch.refEraseWrite
	}
	var out cutOutcome
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			erase(p, 1)
		}
		p.SetSpan(col.Begin(env.Now(), 0, "measured", trace.PhaseOp))
		out.verdict = eraseWrite(p, 0, data, &WriteID{Lo: 9})
		out.done = env.Now()
	})
	if cut >= 0 {
		env.Schedule(cut, ch.PowerOff)
	}
	env.Run()
	for k := range ch.wr.workers {
		out.pulses = append(out.pulses, ch.wr.workers[k].schedule(cfg.Nand.TProg))
	}
	for _, key := range spanKeys(col) {
		if strings.HasPrefix(key, "nand/erase ") && strings.HasSuffix(key, " measured") {
			out.erases = append(out.erases, key)
		}
	}
	out.ftl = ftlSum(ch)
	out.images = make([]planeImage, len(ch.planes))
	for k := range ch.planes {
		ps := &ch.planes[k]
		phys, ok := ps.lookup(0)
		if !ok {
			out.images[k].writePtr = -2 // the erase never mapped a block
			continue
		}
		img := planeImage{writePtr: ps.plane.WritePtr(phys)}
		for pg := 0; pg < cfg.Nand.PagesPerBlock; pg++ {
			img.torn = append(img.torn, ps.plane.Torn(phys, pg))
			img.spares = append(img.spares, ps.plane.Spare(phys, pg))
		}
		out.images[k] = img
	}
	return out
}

// schedule returns the start of every pulse wk scheduled, by page: the
// stepped ones and the filled tail, expanded.
func (wk *progWorker) schedule(tProg time.Duration) []time.Duration {
	starts := make([]time.Duration, wk.pulses.Len())
	for i := range starts {
		starts[i] = wk.pulses.At(i, tProg)
	}
	return starts
}

// TestPowerCutMatchesReference cuts power at seeded instants inside an
// EraseWriteTagged — every program pulse start, every pulse end (in the
// program-bound regime also the next pulse's start), one nanosecond
// either side of every pulse boundary, mid-pulse, mid-transfer, the same
// instants around every erase pulse, and uniformly drawn ones — and
// requires the write pointer, torn set and spares the closed form leaves
// on each plane to equal the reference's, and every block's wear, the
// mappings, the free pools and the erase spans. Both engines settle through
// nand.Plane.SettleProgramRun, whose rule for a cut exactly on a pulse
// boundary does not depend on whether the kernel dispatches the cut or
// the plane's wake-up first, and through SettleErase, applied at each
// erase pulse's end in the slot the reference's process resumed in;
// nand's TestSettleProgramRunCutRule and TestSettleEraseCutRule pin
// those rules themselves.
//
// The instant the failed command returns: in the erase, when the last
// pulse the chips had reached ends, as the reference's per-chip
// processes did, and with the same verdict. In the write, the
// reference's planes each gave up at their next step after the cut, so
// it returned within one TProg of it; the closed form wakes at the cut
// itself (DESIGN.md §9, command granularity), never later than the
// reference.
//
// The 32-page variants settle after a few worker steps, so most of
// their cuts land in the part of the write scheduleWrite filled. The
// wear variant first cycles logical block 1 through every block of each
// plane under an EraseLimit of 2, so the measured erase retires worn-out
// blocks and pulses their replacements, and cuts land in those too.
func TestPowerCutMatchesReference(t *testing.T) {
	t.Run("data", func(t *testing.T) { testPowerCut(t, 6, true, 0) })    // a CRC per page
	t.Run("timing", func(t *testing.T) { testPowerCut(t, 6, false, 0) }) // no payload, no CRCs
	t.Run("data-32", func(t *testing.T) { testPowerCut(t, 32, true, 0) })
	t.Run("timing-32", func(t *testing.T) { testPowerCut(t, 32, false, 0) })
	t.Run("wear", func(t *testing.T) { testPowerCut(t, 6, false, 2) })
}

func testPowerCut(t *testing.T, pages int, dataMode bool, eraseLimit int) {
	cfg := smallConfig()
	cfg.Nand.PagesPerBlock = pages
	cfg.Nand.RetainData = dataMode
	warm := 0
	if eraseLimit > 0 {
		cfg.Nand.EraseLimit, warm = eraseLimit, cfg.Nand.BlocksPerPlane
	}
	var data []byte
	if dataMode {
		data = make([]byte, cfg.Nand.PageSize*cfg.Nand.PagesPerBlock*cfg.Chips*cfg.Nand.Planes)
		rand.New(rand.NewSource(11)).Read(data)
	}
	uncut := cutRun(t, cfg, data, warm, -1, false)
	if uncut.verdict != nil {
		t.Fatal(uncut.verdict)
	}
	var cuts []time.Duration
	var last time.Duration
	for _, plane := range uncut.pulses {
		for _, s := range plane {
			e := s + cfg.Nand.TProg
			cuts = append(cuts, s, s+1, e-1, e, e+1, s+cfg.Nand.TProg/3)
			if e > last {
				last = e
			}
		}
	}
	retired := len(uncut.erases) - cfg.Chips*cfg.Nand.Planes
	if eraseLimit > 0 && retired == 0 {
		t.Fatal("the measured erase retired no block")
	}
	for _, key := range uncut.erases {
		var name, parent string
		var s, e time.Duration
		if _, err := fmt.Sscan(key, &name, &s, &e, &parent); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, s, s+1, e-1, e, e+1, (s+e)/2)
	}
	first := uncut.pulses[0][0]
	cuts = append(cuts, first-100*time.Microsecond, first-1) // first transfers in flight
	rng := rand.New(rand.NewSource(12))
	for n := len(cuts); len(cuts) < n+200; {
		cuts = append(cuts, time.Duration(rng.Int63n(int64(last+time.Millisecond))))
	}
	for _, cut := range cuts {
		want := cutRun(t, cfg, data, warm, cut, true)
		got := cutRun(t, cfg, data, warm, cut, false)
		wantErr, gotErr := want.verdict, got.verdict
		admitted := len(got.pulses) > 0 && len(got.pulses[0]) > 0 // the write was scheduled
		if errors.Is(wantErr, ErrPowerLoss) != errors.Is(gotErr, ErrPowerLoss) || (wantErr == nil) != (gotErr == nil) ||
			!admitted && fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Errorf("cut %v: reference verdict %v, closed form %v", cut, wantErr, gotErr)
		}
		switch {
		case admitted && cut < uncut.done: // cut inside the admitted write
			if got.done != cut || want.done < cut || want.done > cut+cfg.Nand.TProg {
				t.Errorf("cut %v: closed form returned at %v (want the cut), reference at %v (want within one TProg of it)", cut, got.done, want.done)
			}
		case got.done != want.done: // cut during the erase, or after the command
			t.Errorf("cut %v: closed form returned at %v, reference at %v", cut, got.done, want.done)
		}
		if want.ftl != got.ftl {
			t.Errorf("cut %v: mappings, free pools or wear differ", cut)
		}
		if fmt.Sprint(want.erases) != fmt.Sprint(got.erases) {
			t.Errorf("cut %v: erase spans\n ref  %v\n got  %v", cut, want.erases, got.erases)
		}
		for k := range want.images {
			w, g := want.images[k], got.images[k]
			if w.writePtr != g.writePtr {
				t.Errorf("cut %v plane %d: write pointer %d, reference %d", cut, k, g.writePtr, w.writePtr)
				continue
			}
			for pg := range w.torn {
				if w.torn[pg] != g.torn[pg] || !bytes.Equal(w.spares[pg], g.spares[pg]) {
					t.Errorf("cut %v plane %d page %d: torn %v spare %x, reference torn %v spare %x",
						cut, k, pg, g.torn[pg], g.spares[pg], w.torn[pg], w.spares[pg])
				}
			}
		}
	}
}

// TestEraseDispatchMatchesReference runs three issuers' erases on one
// channel among bystanders that wake on the erase pulses' own grid and
// on a grid half as fine, each leaving a counter of the channel's total
// wear and now and then a span, and requires
// the whole trace — every event's instant, sequence number and span ID —
// and every verdict to equal what the reference's per-chip processes
// produce: stepErase takes the dispatch slots those processes took, with
// worn-out blocks retired inside commands, pools run dry, and a power
// cut mid-pulse or exactly at a pulse's end.
func TestEraseDispatchMatchesReference(t *testing.T) {
	te := smallConfig().Nand.TErase
	for _, tc := range []struct {
		name  string
		limit int           // EraseLimit, 0 for the default
		cut   time.Duration // -1: none
	}{
		{"plain", 0, -1},
		{"wear", 1, -1},
		{"cut-mid-pulse", 0, 5*te + te/3},
		{"cut-at-pulse-end", 0, 6 * te},
		{"wear-cut-at-pulse-end", 1, 83 * te},
		{"wear-cut-mid-pulse", 1, 83*te + te/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantVerdicts := eraseTrace(t, tc.limit, tc.cut, true)
			got, gotVerdicts := eraseTrace(t, tc.limit, tc.cut, false)
			if trace.Hash(want) != trace.Hash(got) {
				for i := range min(len(want), len(got)) {
					if want[i] != got[i] {
						t.Fatalf("%d and %d events; first difference at %d:\n ref  %+v\n got  %+v", len(want), len(got), i, want[i], got[i])
					}
				}
				t.Fatalf("%d events, reference %d", len(got), len(want))
			}
			if fmt.Sprint(wantVerdicts) != fmt.Sprint(gotVerdicts) {
				t.Errorf("verdicts\n ref  %v\n got  %v", wantVerdicts, gotVerdicts)
			}
		})
	}
}

// eraseTrace runs TestEraseDispatchMatchesReference's scenario through
// the reference or the laid-out erase and returns its trace and the
// erases' verdicts.
func eraseTrace(t *testing.T, limit int, cut time.Duration, ref bool) ([]trace.Event, []string) {
	t.Helper()
	cfg := smallConfig()
	cfg.Nand.EraseLimit = limit
	te := cfg.Nand.TErase
	env := sim.NewEnv()
	defer env.Close()
	col := trace.NewCollector()
	env.SetTracer(col)
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	erase := ch.Erase
	if ref {
		erase = ch.refErase
	}
	var verdicts []string
	for w := 0; w < 3; w++ {
		env.Go("issuer", func(p *sim.Proc) {
			for i := 0; i < 24; i++ {
				span := col.Begin(env.Now(), 0, "erase", trace.PhaseOp)
				p.SetSpan(span)
				err := erase(p, w)
				col.End(env.Now(), span)
				verdicts = append(verdicts, fmt.Sprint(w, env.Now(), err))
			}
		})
	}
	for _, period := range []time.Duration{te, te / 2} {
		env.Go("grid", func(p *sim.Proc) {
			for i := 0; env.Now() < 200*te; i++ {
				p.Wait(period)
				col.Counter(env.Now(), "wear", ch.Wear().TotalErase)
				if i%3 == 0 {
					env.Schedule(0, func() { col.End(env.Now(), col.Begin(env.Now(), 0, "bystander", trace.PhaseOp)) })
				}
			}
		})
	}
	if cut >= 0 {
		env.Schedule(cut, ch.PowerOff)
	}
	env.Run()
	return col.Events(), verdicts
}
