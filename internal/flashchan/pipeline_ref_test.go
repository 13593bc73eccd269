package flashchan

// The park-per-page channel pipeline this package used before commands
// were scheduled in closed form, kept verbatim as the reference the
// differential tests (pipeline_diff_test.go) hold ReadAt and
// writeLocked to: refReadAt parks the caller twice per page
// (Plane.ReadPage, then the cache-register drain), refWriteLocked
// spawns a worker per plane that parks once or twice per page. The only
// edits are the ref prefix and correct's one-value return. This file is
// the only place that loop survives — and, with makePageOOB and
// encodeOOBInto below, the page-by-page construction of the out-of-band
// records that writeOOB.Spare now renders on demand.

import (
	"fmt"
	"hash/crc32"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// refTransferAsync is the reservation the reference makes when a step
// reaches the bus: the next FIFO slot from now.
func (ch *Channel) refTransferAsync(n int, parent trace.SpanID) time.Duration {
	start, end := ch.bus.Reserve(n)
	t := ch.env.Tracer()
	span := t.Begin(start, parent, "chan/bus", trace.PhaseBus)
	t.End(end, span)
	return end
}

// refWrite and refEraseWrite are Channel.write and Channel.eraseWrite
// over refWriteLocked.
func (ch *Channel) refWrite(p *sim.Proc, lbn int, data []byte, tag *WriteID) error {
	ch.acquire(p, ch.writePrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil {
		return err
	}
	if err := ch.refWriteLocked(p, lbn, data, tag); err != nil {
		return err
	}
	ch.maybeCheckpoint(p)
	return nil
}

func (ch *Channel) refEraseWrite(p *sim.Proc, lbn int, data []byte, tag *WriteID) error {
	ch.acquire(p, ch.writePrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil {
		return err
	}
	if err := ch.eraseLocked(p, lbn); err != nil {
		return err
	}
	if err := ch.refWriteLocked(p, lbn, data, tag); err != nil {
		return err
	}
	ch.maybeCheckpoint(p)
	return nil
}

func (ch *Channel) refWriteLocked(p *sim.Proc, lbn int, data []byte, tag *WriteID) error {
	for i := range ch.planes {
		ps := &ch.planes[i]
		phys, ok := ps.mapping[lbn]
		if !ok || ps.plane.WritePtr(phys) != 0 {
			return fmt.Errorf("%w: logical block %d, plane %d", ErrNotErased, lbn, i)
		}
	}
	pageSize := ch.cfg.Nand.PageSize
	pagesPerBlock := ch.cfg.Nand.PagesPerBlock
	stripe := ch.stripeBytes()
	// One sequence number per write command: all planes and pages of
	// this logical block share it, so the recovery scan can tell a
	// complete cross-plane generation from a torn one.
	seq := ch.nextSeq
	ch.nextSeq++
	errs := make([]error, len(ch.planes))
	parent := p.Span()
	var workers []*sim.Proc
	for i := range ch.planes {
		pi := i
		w := ch.env.Go("flashchan/write", func(wp *sim.Proc) {
			wp.SetSpan(parent)
			ps := &ch.planes[pi]
			phys := ps.mapping[lbn]
			// One flash-phase span per plane covers the whole program
			// loop: with cache programming the plane is array-busy
			// nearly end to end, and per-page spans would multiply the
			// event volume 256x for no extra insight.
			t := ch.env.Tracer()
			span := t.Begin(ch.env.Now(), parent, "nand/program", trace.PhaseFlash)
			// Cache programming: while page pg programs from the data
			// register, page pg+1 streams over the bus into the cache
			// register, so sustained writes are program-limited.
			pending := ch.refTransferAsync(pageSize, parent)
			var bcrc uint32 // running fold of the page CRCs
			// The media model copies the spare synchronously, so one
			// stack buffer serves every page of this worker.
			var oobBuf [oobSize]byte
			for pg := 0; pg < pagesPerBlock; pg++ {
				var payload []byte
				if data != nil {
					off := pi*stripe + pg*pageSize
					payload = data[off : off+pageSize]
				}
				wp.WaitUntil(pending)
				if pg+1 < pagesPerBlock {
					pending = ch.refTransferAsync(pageSize, parent)
				}
				oob, fold := makePageOOB(tag, seq, lbn, pg, pagesPerBlock, payload, bcrc)
				bcrc = fold
				encodeOOBInto(oob, oobBuf[:])
				if err := ps.plane.ProgramOOB(wp, phys, pg, payload, oobBuf[:]); err != nil {
					errs[pi] = err
					t.End(ch.env.Now(), span)
					return
				}
				if ch.parity != nil && payload != nil {
					ch.storeParity(pi, phys, pg, payload)
				}
			}
			t.End(ch.env.Now(), span)
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
	ch.bytesWritten += int64(ch.BlockSize())
	m := blockMeta{seq: seq}
	if tag != nil {
		m.id = *tag
		m.tagged = true
	}
	ch.meta[lbn] = m
	return nil
}

func (ch *Channel) refReadAt(p *sim.Proc, lbn int, off, size int) ([]byte, error) {
	if err := ch.checkLBN(lbn); err != nil {
		return nil, err
	}
	pageSize := ch.cfg.Nand.PageSize
	if off%pageSize != 0 || size%pageSize != 0 || size <= 0 {
		return nil, fmt.Errorf("%w: off=%d size=%d page=%d", ErrBadAlignment, off, size, pageSize)
	}
	if off+size > ch.BlockSize() {
		return nil, fmt.Errorf("%w: off %d + size %d > block %d", ErrBadAddress, off, size, ch.BlockSize())
	}
	if err := ch.checkAlive(); err != nil {
		return nil, err
	}
	ch.acquire(p, ch.readPrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil { // killed while queued
		return nil, err
	}

	var out []byte
	if ch.cfg.Nand.RetainData {
		out = make([]byte, 0, size)
	}
	t := ch.env.Tracer()
	parent := p.Span()
	stripe := ch.stripeBytes()
	var pending time.Duration // wires-quiet instant of the in-flight page (0 = none)
	lastPi, lastPhys := -1, 0 // mapping lookup cache: pi changes once per stripe
	for done := 0; done < size; {
		pi := (off + done) / stripe
		within := (off + done) % stripe
		pg := within / pageSize
		ps := &ch.planes[pi]
		if pi != lastPi {
			phys, ok := ps.mapping[lbn]
			if !ok {
				return nil, fmt.Errorf("%w: logical block %d never written", ErrBadAddress, lbn)
			}
			lastPi, lastPhys = pi, phys
		}
		phys := lastPhys
		span := t.Begin(ch.env.Now(), parent, "nand/read", trace.PhaseFlash)
		data, err := ps.plane.ReadPage(p, phys, pg)
		if err != nil {
			t.End(ch.env.Now(), span)
			return nil, err
		}
		t.End(ch.env.Now(), span)
		if ch.code != nil {
			if err = ch.correct(pi, phys, pg, data); err != nil {
				return nil, err
			}
		}
		if ch.cfg.VerifyCRC && data != nil {
			if err := ch.verifyCRC(ps.plane, pi, phys, pg, data); err != nil {
				return nil, err
			}
		}
		if out != nil {
			out = append(out, data...)
		}
		// Wait for the cache register to drain, then ship this page.
		p.WaitUntil(pending)
		pending = ch.refTransferAsync(pageSize, parent)
		done += pageSize
	}
	p.WaitUntil(pending)
	ch.bytesRead += int64(size)
	return out, nil
}

// makePageOOB builds the record for one page of a write command and
// returns it with the updated block-CRC fold.
func makePageOOB(tag *WriteID, seq uint64, lbn, page, pagesPerBlock int, payload []byte, fold uint32) (pageOOB, uint32) {
	oob := pageOOB{seq: seq, lbn: lbn, page: page}
	if tag != nil {
		oob.id = *tag
		oob.flags |= oobTagged
	}
	if payload != nil {
		oob.crc = crc32.ChecksumIEEE(payload)
		oob.flags |= oobHasCRC
	}
	fold = foldCRC(fold, oob.crc)
	if page == pagesPerBlock-1 {
		oob.flags |= oobLast
		oob.bcrc = fold
	}
	return oob, fold
}

// encodeOOBInto serializes into a caller-owned buffer of oobSize bytes.
func encodeOOBInto(oob pageOOB, buf []byte) { copy(buf, encodeOOB(oob)) }
