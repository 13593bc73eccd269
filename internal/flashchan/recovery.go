// Mount-time recovery: the channel engine's power-loss story.
//
// Every page the write path programs carries ~41 bytes of out-of-band
// metadata in the NAND spare area: the caller's 128-bit write ID
// (§2.4's write-ID hashing), a per-channel command sequence number, the
// logical block and page, a payload CRC, and — on the last page — a
// block CRC folding the page CRCs. Because pages program strictly in
// order, a torn page is always the last page written, so a physical
// block is provably complete iff its write pointer reached the end and
// its first and last pages decode consistently; the full OOB walk in
// host code is the stream validation the channel FPGA does on the fly,
// while the simulated cost is one probe read per written page.
//
// After a power loss, Persistent captures the media, Mount rebuilds
// the channel over it in a fresh environment, and Recover scans every
// plane to rebuild the LA2PA mapping (newest complete cross-plane
// generation per logical block wins), the wear-leveling heaps (erase
// counts live in the media), and the bad-block list, discarding torn
// and stale physical blocks into the free pool for re-erase.
package flashchan

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"sdf/internal/nand"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// WriteID is the 128-bit write identifier upper layers stamp on a
// block write. The production system hashes a 128-bit ID per write;
// our block layer uses the low 64 bits.
type WriteID struct {
	Hi, Lo uint64
}

// Out-of-band flag bits.
const (
	oobTagged = 1 << iota // written via WriteTagged (ID is meaningful)
	oobHasCRC             // payload CRC present (data mode)
	oobLast               // last page of the block; block CRC present
)

// oobSize is the encoded out-of-band record: 16 (ID) + 8 (seq) +
// 4 (lbn) + 4 (page) + 4 (page CRC) + 4 (block CRC) + 1 (flags).
const oobSize = 41

// pageOOB is the decoded out-of-band record of one page.
type pageOOB struct {
	id    WriteID
	seq   uint64
	lbn   int
	page  int
	crc   uint32 // payload CRC32 (0 in timing-only mode)
	bcrc  uint32 // fold of the block's page CRCs (last page only)
	flags uint8
}

// writeOOB is the out-of-band record of one block write: the few words
// every page's spare follows from, kept by the media in place of the
// pages' encoded records (nand.SpareSource). Source page k*pages+pg is
// page pg of the block on plane k, so the planes' runs share one record.
type writeOOB struct {
	blockMeta
	crcs  []uint32 // payload CRC32 by source page; nil for a write without payload
	pool  *oobPool
	lbn   int32
	pages int32 // pages per plane block
	refs  int32 // runs the record still owes a Release
}

// oobPool holds the records whose every run has been erased, for the
// next block writes. It is an object of its own: records outlive their
// channel in the media a later one mounts, and must not keep it alive.
type oobPool struct{ free []*writeOOB }

// newOOB returns the record of a block write, for one run per plane;
// the CRCs of a write with a payload are the caller's to fill in.
func (ch *Channel) newOOB(lbn int, m blockMeta, payload bool) *writeOOB {
	var rec *writeOOB
	if n := len(ch.oob.free); n > 0 {
		rec, ch.oob.free = ch.oob.free[n-1], ch.oob.free[:n-1]
	} else {
		rec = &writeOOB{pool: ch.oob}
	}
	pages := ch.cfg.Nand.PagesPerBlock
	var crcs []uint32
	if payload {
		crcs = append(rec.crcs[:0], make([]uint32, len(ch.planes)*pages)...)
	}
	*rec = writeOOB{blockMeta: m, crcs: crcs, pool: rec.pool, lbn: int32(lbn),
		pages: int32(pages), refs: int32(len(ch.planes))}
	return rec
}

// Spare renders one page's record; the block-CRC fold of a plane's
// pages is computed when its last page is asked for.
func (w *writeOOB) Spare(i int) []byte {
	pg := i % int(w.pages)
	oob := pageOOB{id: w.id, seq: w.seq, lbn: int(w.lbn), page: pg}
	if w.tagged {
		oob.flags |= oobTagged
	}
	if w.crcs != nil {
		oob.flags |= oobHasCRC
	}
	oob.crc = w.crc(i)
	if pg == int(w.pages)-1 {
		oob.flags |= oobLast
		for j := i - pg; j <= i; j++ {
			oob.bcrc = foldCRC(oob.bcrc, w.crc(j))
		}
	}
	return encodeOOB(oob)
}

// crc is source page i's payload CRC, 0 for a write without payload.
func (w *writeOOB) crc(i int) uint32 {
	if w.crcs == nil {
		return 0
	}
	return w.crcs[i]
}

func (w *writeOOB) Release() {
	if w.refs--; w.refs == 0 {
		w.pool.free = append(w.pool.free, w)
	}
}

// foldCRC chains one page CRC into the running block CRC. The body is
// crc32.Update(acc, crc32.IEEETable, le32(pageCRC)) unrolled over the
// four little-endian bytes, so that no slice is needed.
func foldCRC(acc, pageCRC uint32) uint32 {
	crc := ^acc
	for i := 0; i < 4; i++ {
		crc = crc32.IEEETable[byte(crc)^byte(pageCRC>>(8*i))] ^ (crc >> 8)
	}
	return ^crc
}

func encodeOOB(oob pageOOB) []byte {
	buf := make([]byte, oobSize)
	binary.LittleEndian.PutUint64(buf[0:], oob.id.Hi)
	binary.LittleEndian.PutUint64(buf[8:], oob.id.Lo)
	binary.LittleEndian.PutUint64(buf[16:], oob.seq)
	binary.LittleEndian.PutUint32(buf[24:], uint32(oob.lbn))
	binary.LittleEndian.PutUint32(buf[28:], uint32(oob.page))
	binary.LittleEndian.PutUint32(buf[32:], oob.crc)
	binary.LittleEndian.PutUint32(buf[36:], oob.bcrc)
	buf[40] = oob.flags
	return buf
}

func decodeOOB(buf []byte) (pageOOB, bool) {
	if len(buf) != oobSize {
		return pageOOB{}, false
	}
	return pageOOB{
		id:    WriteID{Hi: binary.LittleEndian.Uint64(buf[0:]), Lo: binary.LittleEndian.Uint64(buf[8:])},
		seq:   binary.LittleEndian.Uint64(buf[16:]),
		lbn:   int(binary.LittleEndian.Uint32(buf[24:])),
		page:  int(binary.LittleEndian.Uint32(buf[28:])),
		crc:   binary.LittleEndian.Uint32(buf[32:]),
		bcrc:  binary.LittleEndian.Uint32(buf[36:]),
		flags: buf[40],
	}, true
}

// verifyCRC checks a page read against the payload CRC stored in its
// out-of-band area. Pages without a CRC record (timing-only payloads,
// raw nand writes) pass: the check only fires where the write path
// left evidence.
func (ch *Channel) verifyCRC(pl *nand.Plane, pi, phys, pg int, data []byte) error {
	oob, ok := decodeOOB(pl.Spare(phys, pg))
	if !ok || oob.flags&oobHasCRC == 0 {
		return nil
	}
	if crc32.ChecksumIEEE(data) != oob.crc {
		ch.eccFailures++
		return fmt.Errorf("%w: plane %d block %d page %d CRC mismatch",
			ErrUncorrectable, pi, phys, pg)
	}
	return nil
}

// Persistent is the channel state that survives a power loss: each
// chip's NAND media plus the BCH parity that lives in the pages'
// spare areas. Capture it with Channel.Persistent after a PowerOff
// and hand it to Mount in a fresh environment.
type Persistent struct {
	media  []*nand.Media
	parity map[parityKey][][]byte
}

// Persistent returns the channel's surviving state. The result shares
// the live media: capture it only after PowerOff, when no further
// commands can mutate it.
func (ch *Channel) Persistent() *Persistent {
	ps := &Persistent{parity: ch.parity}
	for _, chip := range ch.chips {
		ps.media = append(ps.media, chip.Media())
	}
	return ps
}

// Mount rebuilds a channel over persistent state in a fresh
// environment. The channel comes up with empty FTL state — no logical
// mapping, no free pools — and must run Recover before serving I/O.
func Mount(env *sim.Env, cfg Config, state *Persistent) (*Channel, error) {
	ch, err := newChannel(env, cfg)
	if err != nil {
		return nil, err
	}
	if len(state.media) != cfg.Chips {
		return nil, fmt.Errorf("flashchan: mount with %d chips of media, config wants %d", len(state.media), cfg.Chips)
	}
	for i := 0; i < cfg.Chips; i++ {
		np := cfg.Nand
		np.Seed = cfg.Seed*1000 + int64(i)
		chip, err := nand.Mount(env, np, state.media[i])
		if err != nil {
			return nil, err
		}
		ch.addChip(chip)
	}
	if ch.code != nil {
		ch.parity = state.parity
		if ch.parity == nil {
			ch.parity = make(map[parityKey][][]byte)
		}
	}
	return ch, nil
}

// RecoveredBlock is one logical block the mount-time scan restored.
type RecoveredBlock struct {
	LBN    int
	ID     WriteID
	Tagged bool
	Seq    uint64
}

// RecoveryReport summarizes one channel's mount-time scan.
type RecoveryReport struct {
	// Recovered lists the restored logical blocks in LBN order.
	Recovered []RecoveredBlock
	// TornBlocks counts physical blocks discarded because their write
	// was incomplete at the crash (torn page, partial block, or
	// metadata chain failure). They return to the free pool and must
	// survive a fresh erase before reuse.
	TornBlocks int
	// StaleBlocks counts complete physical blocks superseded by a
	// newer generation of the same logical block.
	StaleBlocks int
	// PartialErases counts erase pulses the power loss interrupted
	// (wear charged, block needs re-erase).
	PartialErases int
	// BadBlocks counts physical blocks skipped as bad.
	BadBlocks int
	// ScannedBlocks and ProbedPages size the scan; ScanTime is the
	// virtual time the slowest plane's probe stream took.
	ScannedBlocks int
	ProbedPages   int64
	ScanTime      time.Duration
	// CheckpointFound reports whether a valid checkpoint survived;
	// CheckpointSeq is its generation and CheckpointWatermark the
	// sequence number it was cut at. CheckpointHits counts physical
	// blocks the checkpoint vouched for, each validated with a single
	// first-page probe instead of a full out-of-band walk — the
	// mechanism that makes remount cost O(post-checkpoint activity).
	CheckpointFound     bool
	CheckpointSeq       uint64
	CheckpointWatermark uint64
	CheckpointHits      int
}

// planeCand is one complete physical block found by a plane scan.
type planeCand struct {
	phys   int
	id     WriteID
	tagged bool
	seq    uint64
}

// Recover scans every plane's out-of-band metadata and rebuilds the
// channel FTL: logical-to-physical mapping (the newest sequence
// present as a complete block on all planes wins, so a write torn on
// any plane falls back to the intact previous generation), the
// wear-leveling free heaps, and the bad-block list. Planes scan in
// parallel; each plane charges one array read plus one bus transfer
// of the OOB record per probed page.
func (ch *Channel) Recover(p *sim.Proc) (RecoveryReport, error) {
	if ch.dead {
		ch.deadRejects++
		return RecoveryReport{}, ErrChannelDead
	}
	var rep RecoveryReport
	t := ch.env.Tracer()
	span := t.Begin(ch.env.Now(), p.Span(), "chan/recover", trace.PhaseRecovery)
	defer func() { t.End(ch.env.Now(), span) }()

	pagesPerBlock := ch.cfg.Nand.PagesPerBlock
	perProbe := ch.cfg.Nand.TRead + ch.cfg.BusOverhead + sim.ByteTime(oobSize, ch.cfg.BusRate)
	start := ch.env.Now()

	// Load the newest valid checkpoint first (when enabled) and index
	// it by physical block per plane: a checkpointed block whose
	// first-page identity matches is accepted with one probe; only
	// post-watermark activity pays the full out-of-band walk. No valid
	// checkpoint means cpByPhys stays nil and every block takes the
	// full-scan path below.
	cpByPhys := make([]map[int]cpEntry, len(ch.planes))
	var cp *checkpointState
	if ch.cpEnabled() {
		state, slot, cpProbes := ch.loadCheckpoint(p)
		rep.ProbedPages += cpProbes
		cp = state
		if cp != nil {
			rep.CheckpointFound = true
			rep.CheckpointSeq = cp.seq
			rep.CheckpointWatermark = cp.watermark
			ch.cpSeq = cp.seq + 1
			ch.cpSlot = (slot + 1) % cpSlots
			for i := range ch.planes {
				cpByPhys[i] = make(map[int]cpEntry)
			}
			for _, e := range cp.entries {
				for pi, phys := range e.phys {
					if pi < len(ch.planes) {
						cpByPhys[pi][phys] = e
					}
				}
			}
		}
	}

	cands := make([]map[int][]planeCand, len(ch.planes))
	probes := make([]int64, len(ch.planes))
	var maxSeq uint64
	parent := p.Span()
	var workers []*sim.Proc
	for i := range ch.planes {
		pi := i
		w := ch.env.Go("flashchan/recover", func(wp *sim.Proc) {
			wp.SetSpan(parent)
			ps := &ch.planes[pi]
			byLBN := make(map[int][]planeCand)
			var n int64
			for phys := 0; phys < ps.plane.Blocks(); phys++ {
				if ch.cpHome(pi, phys) {
					continue // checkpoint slot, already read above
				}
				if ps.plane.Bad(phys) {
					rep.BadBlocks++
					continue
				}
				rep.ScannedBlocks++
				wp0 := ps.plane.WritePtr(phys)
				if wp0 < 0 {
					continue // never erased, or erase torn by the crash
				}
				n++ // frontier probe
				if wp0 == 0 {
					continue // erased and empty
				}
				if e, hit := cpByPhys[pi][phys]; hit && wp0 == pagesPerBlock && e.seq < cp.watermark {
					// The checkpoint vouches for this block. One probe
					// of the first page confirms the identity (an
					// erase-and-rewrite after the checkpoint would show
					// a different sequence and fall through to the full
					// walk; the extra probe is the price of suspicion).
					n++
					oob, okd := decodeOOB(ps.plane.Spare(phys, 0))
					if okd && oob.seq == e.seq && oob.lbn == e.lbn && oob.id == e.id &&
						(oob.flags&oobTagged != 0) == e.tagged {
						rep.CheckpointHits++
						byLBN[e.lbn] = append(byLBN[e.lbn], planeCand{
							phys:   phys,
							id:     e.id,
							tagged: e.tagged,
							seq:    e.seq,
						})
						continue
					}
				}
				n += int64(wp0) // OOB walk of the written pages
				c, ok := ch.validateBlock(ps.plane, phys, wp0, pagesPerBlock)
				if !ok {
					rep.TornBlocks++
					continue
				}
				byLBN[c.lbn] = append(byLBN[c.lbn], planeCand{
					phys:   phys,
					id:     c.id,
					tagged: c.flags&oobTagged != 0,
					seq:    c.seq,
				})
			}
			cands[pi] = byLBN
			probes[pi] = n
			// The probe stream is strictly sequential on the plane;
			// charge it as one bulk occupancy.
			ps.plane.Timeline().Occupy(wp, time.Duration(n)*perProbe)
		})
		workers = append(workers, w)
	}
	for _, w := range workers {
		p.Join(w)
	}
	for i := range ch.planes {
		rep.ProbedPages += probes[i]
		rep.PartialErases += ch.planes[i].plane.InterruptedErases()
	}

	// Choose one winning generation per logical block: the highest
	// sequence for which every plane holds a complete block with the
	// same ID. A multi-plane write torn on one plane has no common
	// newest sequence, so the scan falls back to the previous intact
	// generation (whose physical blocks were recycled into the free
	// pool but never re-erased).
	for lbn := 0; lbn < ch.LogicalBlocks(); lbn++ {
		first := cands[0][lbn]
		if len(first) == 0 {
			continue
		}
		sort.Slice(first, func(a, b int) bool { return first[a].seq > first[b].seq })
		for _, c0 := range first {
			match := make([]int, len(ch.planes))
			match[0] = c0.phys
			ok := true
			for pi := 1; pi < len(ch.planes); pi++ {
				found := false
				for _, c := range cands[pi][lbn] {
					if c.seq == c0.seq && c.id == c0.id && c.tagged == c0.tagged {
						match[pi] = c.phys
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for pi := range ch.planes {
				ch.planes[pi].mapping[lbn] = match[pi]
			}
			ch.meta[lbn] = blockMeta{id: c0.id, tagged: c0.tagged, seq: c0.seq}
			rep.Recovered = append(rep.Recovered, RecoveredBlock{
				LBN:    lbn,
				ID:     c0.id,
				Tagged: c0.tagged,
				Seq:    c0.seq,
			})
			if c0.seq > maxSeq {
				maxSeq = c0.seq
			}
			break
		}
	}

	// Complete-but-unchosen candidates are stale generations; count
	// them and track the global sequence high-water mark so new writes
	// always supersede everything on the media.
	for pi := range ch.planes {
		ps := &ch.planes[pi]
		mapped := make(map[int]bool, len(ps.mapping))
		for lbn := 0; lbn < ch.LogicalBlocks(); lbn++ {
			if phys, ok := ps.mapping[lbn]; ok {
				mapped[phys] = true
			}
		}
		for lbn := 0; lbn < ch.LogicalBlocks(); lbn++ {
			for _, c := range cands[pi][lbn] {
				if c.seq > maxSeq {
					maxSeq = c.seq
				}
				if !mapped[c.phys] {
					rep.StaleBlocks++
				}
			}
		}
		// Rebuild the wear heap: every healthy, unmapped physical
		// block is allocatable again (erase counts live in the media).
		// Checkpoint home blocks never enter the pool.
		ps.free.idx = ps.free.idx[:0]
		for phys := 0; phys < ps.plane.Blocks(); phys++ {
			if !ps.plane.Bad(phys) && !mapped[phys] && !ch.cpHome(pi, phys) {
				ps.free.idx = append(ps.free.idx, phys)
			}
		}
		heap.Init(&ps.free)
	}
	ch.nextSeq = maxSeq + 1
	if cp != nil && cp.watermark > ch.nextSeq {
		// Every pre-checkpoint write sat below the watermark; if the
		// scan saw less (post-checkpoint writes all torn), the
		// watermark still floors the sequence so new writes supersede
		// anything the media might hold.
		ch.nextSeq = cp.watermark
	}
	rep.ScanTime = ch.env.Now() - start
	return rep, nil
}

// validateBlock checks one physical block's metadata chain: the block
// is complete iff the write pointer reached the last page and every
// page's OOB decodes with consistent ID/sequence/LBN, correct page
// numbers, and a matching block CRC on the last page. Sequential
// programming guarantees a torn page is the last one written, and a
// torn page retains no spare, so incompleteness is always detected.
func (ch *Channel) validateBlock(pl *nand.Plane, phys, writePtr, pagesPerBlock int) (pageOOB, bool) {
	if writePtr != pagesPerBlock {
		return pageOOB{}, false
	}
	first, ok := decodeOOB(pl.Spare(phys, 0))
	if !ok || first.page != 0 || first.lbn < 0 || first.lbn >= ch.LogicalBlocks() {
		return pageOOB{}, false
	}
	var fold uint32
	for pg := 0; pg < pagesPerBlock; pg++ {
		oob, ok := decodeOOB(pl.Spare(phys, pg))
		if !ok || oob.page != pg || oob.lbn != first.lbn ||
			oob.seq != first.seq || oob.id != first.id ||
			oob.flags&oobTagged != first.flags&oobTagged {
			return pageOOB{}, false
		}
		fold = foldCRC(fold, oob.crc)
		if pg == pagesPerBlock-1 && (oob.flags&oobLast == 0 || oob.bcrc != fold) {
			return pageOOB{}, false
		}
	}
	return first, true
}

// SeedRecoverable installs a fully programmed logical block — with
// complete out-of-band metadata but no payloads — directly into the
// media in zero simulated time. It is the recovery analogue of
// nand.Preload: experiments stage a pre-crash fill level whose
// mount-time scan finds real metadata, without simulating the fill
// traffic. Timing-only mode only.
func (ch *Channel) SeedRecoverable(lbn int, id WriteID) error {
	if err := ch.checkLBN(lbn); err != nil {
		return err
	}
	if ch.cfg.Nand.RetainData {
		return fmt.Errorf("flashchan: SeedRecoverable is incompatible with RetainData")
	}
	pagesPerBlock := ch.cfg.Nand.PagesPerBlock
	m := blockMeta{id: id, tagged: true, seq: ch.nextSeq}
	ch.nextSeq++
	rec := ch.newOOB(lbn, m, false)
	for i := range ch.planes {
		ps := &ch.planes[i]
		if _, ok := ps.mapping[lbn]; ok {
			return fmt.Errorf("flashchan: logical block %d already seeded", lbn)
		}
		if ps.free.Len() == 0 {
			return fmt.Errorf("%w: plane %d", ErrOutOfSpace, i)
		}
		phys := heap.Pop(&ps.free).(int)
		if err := ps.plane.PreloadSpares(phys, pagesPerBlock, rec, i*pagesPerBlock); err != nil {
			return err
		}
		ps.mapping[lbn] = phys
	}
	ch.meta[lbn] = m
	return nil
}
