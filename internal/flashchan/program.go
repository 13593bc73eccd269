package flashchan

import (
	"hash/crc32"
	"time"

	"sdf/internal/nand"
	"sdf/internal/trace"
)

// blockWrite is the block write the engine is serving: its arguments
// and, per plane, the program pulses scheduleWrite laid out. The media
// sees none of it until settleWrite, which runs when the command's one
// park ends — or at the instant the power dies, so what Persistent
// captures after a cut never holds a page from the future. The record
// lives in the Channel (the engine serves one command at a time) and
// its slices are reused, so a write allocates nothing in steady state.
type blockWrite struct {
	active  bool  // scheduled, not yet settled
	failed  error // settleWrite's verdict, for the command to collect
	lbn     int
	data    []byte
	meta    blockMeta // the identity its pages are stamped with
	parent  trace.SpanID
	steps   int // worker steps scheduled so far
	workers []progWorker
}

// progWorker is one plane's share of a block write: the cache-program
// recurrence "when page pg's transfer has landed, put page pg+1 on the
// bus, then pulse page pg". It is a process in all but the coroutine:
// scheduleWrite steps the planes' workers in the (instant, scheduling
// order) sequence the kernel would have resumed them in, which is what
// decides who gets the bus first when two of them are ready together.
//
// Three rules of package sim are mirrored here, and nothing else of the
// kernel: Proc.WaitUntil returns without an event when the instant is
// not in the future (stepWorker falls through when the transfer has
// landed); Timeline.Occupy always costs one event, even for a slot that
// starts now (a pulse end is always a step); and an event's tie-break
// sequence is drawn when it is scheduled, not when it fires (park
// stamps blockWrite.steps). pipeline_ref_test.go keeps the four real
// processes and pipeline_diff_test.go holds this loop to them; a change
// to those kernel rules has to be made here too.
type progWorker struct {
	phys    int
	pg      int           // page it is transferring or pulsing
	wake    time.Duration // instant of its next step
	order   int           // blockWrite.steps when that step was scheduled: same-instant tie-break
	pulsing bool          // the step is page pg's pulse ending, not its transfer landing
	pending time.Duration // wires-quiet instant of its in-flight transfer
	done    bool
	end     time.Duration // instant it finished or failed
	err     error
	span    trace.SpanID
	// pulses are its scheduled pulses, by page: the ones it stepped,
	// then the periodic tail fillWrite laid out.
	pulses nand.Pulses
}

// scheduleWrite lays out ch.wr on the bus and the four planes and
// returns the instant the last plane finishes. The engine mutex makes
// those timelines private to the command, so every instant a worker
// process would have observed is computable now (DESIGN.md §10). The
// workers are stepped until their pipeline settles into a period of
// TProg, and fillWrite lays out the rest.
func (ch *Channel) scheduleWrite(parent trace.SpanID) time.Duration {
	w := &ch.wr
	if w.workers == nil {
		w.workers = make([]progWorker, len(ch.planes))
	}
	w.parent, w.steps = parent, 0
	t := ch.env.Tracer()
	now := ch.env.Now()
	hold := ch.bus.Hold(ch.cfg.Nand.PageSize)
	// The planes' transfers fit in one program period, or the bus sets
	// the pace and the pipeline never settles.
	periodic := time.Duration(len(w.workers))*hold <= ch.cfg.Nand.TProg
	for k := range w.workers {
		wk := &w.workers[k]
		*wk = progWorker{phys: ch.planes[k].mapping[w.lbn], pulses: nand.Pulses{Stepped: wk.pulses.Stepped[:0]}}
		// One flash-phase span per plane covers the whole program loop:
		// with cache programming the plane is array-busy nearly end to
		// end, and per-page spans would multiply the event volume 256x
		// for no extra insight.
		wk.span = t.Begin(now, parent, "nand/program", trace.PhaseFlash)
		wk.pending = ch.transferAt(now, ch.cfg.Nand.PageSize, parent)
		ch.stepWorker(k, now)
	}
	var end time.Duration
	for {
		next := -1
		for k := range w.workers {
			wk := &w.workers[k]
			if wk.done {
				if wk.end > end {
					end = wk.end
				}
				continue
			}
			if next < 0 || wk.wake < w.workers[next].wake ||
				wk.wake == w.workers[next].wake && wk.order < w.workers[next].order {
				next = k
			}
		}
		if next < 0 {
			break
		}
		ch.stepWorker(next, w.workers[next].wake)
		if periodic && ch.settled(hold) {
			ch.fillWrite(hold)
		}
	}
	w.active = true
	return end
}

// settled reports whether every later step of ch.wr is one period of
// what the workers do now. It holds when each worker is mid-pulse with
// its next page landed by the time the pulse ends, the bus is quiet by
// the first pulse end, and the pulses' starts, taken mod TProg, are
// pairwise at least one bus hold apart (and distinct), circularly. Then
// each pulse end finds its page landed and the bus free: the worker
// ships the next page at once, pulses at once, and no transfer waits
// for the bus, ever again.
func (ch *Channel) settled(hold time.Duration) bool {
	w := &ch.wr
	tProg := ch.cfg.Nand.TProg
	first := w.workers[0].wake
	for k := range w.workers {
		wk := &w.workers[k]
		if wk.done || !wk.pulsing || wk.pending > wk.wake {
			return false
		}
		first = min(first, wk.wake)
	}
	if ch.bus.Free() > first {
		return false
	}
	gap := max(hold, 1)
	for a := range w.workers {
		for b := a + 1; b < len(w.workers); b++ {
			d := w.workers[a].wake%tProg - w.workers[b].wake%tProg
			if d < 0 {
				d = -d
			}
			if d < gap || tProg-d < gap {
				return false
			}
		}
	}
	return true
}

// fillWrite lays out the rest of a settled ch.wr in closed form: plane
// k, pulsing page pg_k since S_k, pulses page j at S_k + (j−pg_k)·TProg
// and puts page j+1 on the bus at that instant for one hold. Each
// worker keeps that tail as its first start and a count, each plane
// lane and the bus are committed once, and each worker ends at its last
// pulse end, so the fill costs O(planes) whatever the block's length.
// With a tracer attached the filled steps' spans follow, in the order
// stepping would have emitted them.
func (ch *Channel) fillWrite(hold time.Duration) {
	w := &ch.wr
	pages, tProg := ch.cfg.Nand.PagesPerBlock, ch.cfg.Nand.TProg
	bus, shipped := ch.bus.Free(), 0
	for k := range w.workers {
		wk := &w.workers[k]
		start := wk.wake - tProg // of page pg's pulse
		wk.pulses.TailStart, wk.pulses.Tail = wk.wake, pages-1-wk.pg
		// Pages pg+2 .. pages-1 ship at the pulse starts of pg+1 .. pages-2.
		if n := pages - 2 - wk.pg; n > 0 {
			shipped += n
			bus = max(bus, start+time.Duration(n)*tProg+hold)
		}
		wk.done, wk.end = true, start+time.Duration(pages-wk.pg)*tProg
		ch.planes[k].plane.Timeline().Commit(wk.end)
	}
	ch.bus.Commit(bus, shipped*ch.cfg.Nand.PageSize)
	if t := ch.env.Tracer(); t != nil {
		ch.traceFill(t, hold)
	}
}

// traceFill emits the spans of the steps fillWrite skipped, one step at
// a time in instant order — the stepping order, as no two workers'
// pulses share a phase — with wake and pg as the workers' cursors.
func (ch *Channel) traceFill(t *trace.Collector, hold time.Duration) {
	w := &ch.wr
	pages, tProg := ch.cfg.Nand.PagesPerBlock, ch.cfg.Nand.TProg
	for {
		var wk *progWorker
		for k := range w.workers {
			if c := &w.workers[k]; c.pg < pages && (wk == nil || c.wake < wk.wake) {
				wk = c
			}
		}
		if wk == nil {
			return
		}
		at := wk.wake
		wk.pg++
		wk.wake += tProg
		switch {
		case wk.pg == pages:
			t.End(at, wk.span)
		case wk.pg+1 < pages:
			t.End(at+hold, t.Begin(at, w.parent, "chan/bus", trace.PhaseBus))
		}
	}
}

// stepWorker runs plane k's worker from instant cur to its next park:
// on its transfer landing (skipped when it already has, as WaitUntil
// does) or on a pulse ending (always a step, as Occupy is). Cache
// programming: while page pg programs from the data register, page
// pg+1 streams over the bus into the cache register, so sustained
// writes are program-limited.
func (ch *Channel) stepWorker(k int, cur time.Duration) {
	w := &ch.wr
	wk := &w.workers[k]
	pl := ch.planes[k].plane
	if wk.pulsing {
		wk.pulsing = false
		if wk.pg++; wk.pg == ch.cfg.Nand.PagesPerBlock {
			ch.endWorker(wk, cur, nil)
			return
		}
	}
	if wk.pending > cur {
		w.park(wk, wk.pending)
		return
	}
	if wk.pg+1 < ch.cfg.Nand.PagesPerBlock {
		wk.pending = ch.transferAt(cur, ch.cfg.Nand.PageSize, w.parent)
	}
	if wk.pg == 0 {
		// Nothing else can touch the block while the engine holds it,
		// so the first page's admission check covers them all.
		if err := pl.Programmable(wk.phys, 0, nil); err != nil {
			ch.endWorker(wk, cur, err)
			return
		}
	}
	start, end := pl.Timeline().ReserveAt(cur, ch.cfg.Nand.TProg)
	wk.pulses.Stepped = append(wk.pulses.Stepped, start)
	wk.pulsing = true
	w.park(wk, end)
}

// park schedules wk's next step at instant at, after every step
// scheduled before it.
func (w *blockWrite) park(wk *progWorker, at time.Duration) {
	wk.wake, wk.order = at, w.steps
	w.steps++
}

func (ch *Channel) endWorker(wk *progWorker, at time.Duration, err error) {
	wk.done, wk.end, wk.err = true, at, err
	ch.env.Tracer().End(at, wk.span)
}

// settleWrite applies ch.wr's scheduled pulses to the media, one run per
// plane: the pages' out-of-band records (write ID, sequence, CRCs) as
// one writeOOB the runs share, the payload, the BCH parity.
// nand.Plane.SettleProgramRun decides the pulses' fate, and where a
// plane stops on a chip that lost power. The first plane's failure, if
// any fell short, is left in wr.failed; a second call (the command
// waking after PowerOff settled it) is a no-op.
func (ch *Channel) settleWrite() {
	w := &ch.wr
	if !w.active {
		return
	}
	w.active = false
	pageSize := ch.cfg.Nand.PageSize
	pages := ch.cfg.Nand.PagesPerBlock
	stripe := ch.stripeBytes()
	rec := ch.newOOB(w.lbn, w.meta, w.data != nil)
	w.failed = nil
	for k := range w.workers {
		wk := &w.workers[k]
		var payload []byte
		if w.data != nil {
			payload = w.data[k*stripe : (k+1)*stripe]
		}
		n, err := ch.planes[k].plane.SettleProgramRun(wk.phys, 0, wk.pulses, payload, rec, k*pages)
		if wk.err != nil { // refused at admission: no pulse was scheduled
			err = wk.err
		}
		for pg := 0; pg < n && payload != nil; pg++ {
			page := payload[pg*pageSize : (pg+1)*pageSize]
			rec.crcs[k*pages+pg] = crc32.ChecksumIEEE(page)
			if ch.parity != nil {
				ch.storeParity(k, wk.phys, pg, page)
			}
		}
		if w.failed == nil {
			w.failed = err
		}
	}
	w.data = nil
}
