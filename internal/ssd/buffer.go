package ssd

import (
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// writeBuffer models the battery-backed DRAM write cache of a
// conventional SSD (1 GB on the Huawei Gen3). Host writes complete as
// soon as they are ingested; a background flusher drains pages to
// flash. When the buffer is full, host writes stall until the flusher
// frees space — the mechanism behind the Gen3's enormous write-latency
// spread in Figure 8 (7 ms buffer hits vs 650 ms GC-throttled stalls).
//
// A page rewritten while still buffered is absorbed in place. The
// model is timing-only, so absorption during an in-flight flush is
// treated as a no-op rather than a re-dirty.
type writeBuffer struct {
	s        *SSD
	capPages int
	refs     map[int64]bool
	queue    *sim.Queue[int64]
	used     int
	space    sim.Signal // re-armed after each Fire
	inflight *sim.Resource
}

func newWriteBuffer(s *SSD, capPages int) *writeBuffer {
	if capPages < 1 {
		capPages = 1
	}
	// The flusher must keep every plane's program pipeline fed, so the
	// in-flight window scales with the number of planes.
	planes := 0
	for _, ch := range s.channels {
		planes += len(ch.planes)
	}
	inflight := 2 * planes
	if inflight < 64 {
		inflight = 64
	}
	return &writeBuffer{
		s:        s,
		capPages: capPages,
		refs:     make(map[int64]bool),
		queue:    sim.NewQueue[int64](s.env),
		inflight: sim.NewResource(s.env, inflight),
	}
}

// contains reports whether lpn is currently buffered (read hits are
// served from DRAM).
func (b *writeBuffer) contains(lpn int64) bool { return b.refs[lpn] }

// insert adds a page, blocking while the buffer is full.
func (b *writeBuffer) insert(p *sim.Proc, lpn int64) {
	if b.refs[lpn] {
		return // absorbed in place
	}
	if b.used >= b.capPages {
		// Host write throttled by a full DRAM buffer, waiting on the
		// flusher (and transitively on GC) to free space.
		env := b.s.env
		span := env.Tracer().Begin(env.Now(), p.Span(), "buffer-full", trace.PhaseQueue)
		for b.used >= b.capPages {
			p.Await(&b.space)
		}
		env.Tracer().End(env.Now(), span)
	}
	b.refs[lpn] = true
	b.used++
	b.queue.Put(lpn)
}

// flushLoop drains the buffer to flash: controller processing is
// serialized, the flash programs themselves proceed in parallel
// (bounded) across planes. Space is released only once a page is
// durably programmed.
func (b *writeBuffer) flushLoop(p *sim.Proc) {
	for {
		lpn := b.queue.Get(p)
		b.s.ctrl.Use(p, func() { p.Wait(b.s.prof.WritePageProc) })
		b.inflight.Acquire(p)
		b.s.env.Go("ssd/flush", func(wp *sim.Proc) {
			b.s.flashWrite(wp, lpn)
			delete(b.refs, lpn)
			b.used--
			b.space.Fire()
			b.space = sim.Signal{}
			b.inflight.Release()
		})
	}
}

// depth returns the number of pages queued or in flight.
func (b *writeBuffer) depth() int { return b.used }
