// Checkpointed FTL metadata: the bounded-recovery half of the
// power-loss story (DESIGN.md §14).
//
// Without a checkpoint, the mount-time scan walks the out-of-band
// record of every written page, so remount cost grows linearly with
// device fill. With checkpointing enabled (Config.CheckpointEvery > 0)
// the channel engine periodically persists its FTL state — the
// logical-to-physical block map with each block's write ID and
// command sequence, plus the nextSeq watermark — into two dedicated
// physical blocks on plane 0, alternating A/B. Each checkpoint is
// chunked into pages carrying a sequence number and a whole-payload
// CRC and is crash-atomic: the slot being rewritten is always the
// one holding the *older* checkpoint, and the new image is read back
// and verified before it supersedes the previous one. Power loss at
// any instant therefore leaves at least one intact checkpoint (or
// none early in life, in which case recovery falls back to the full
// scan).
//
// At mount, Recover loads the newest valid checkpoint and trusts it
// for every block whose first-page out-of-band record matches the
// checkpointed identity at a sequence below the watermark: one probe
// instead of a full page walk. Only blocks written after the
// watermark — O(activity since the checkpoint) — pay the walk. The
// remount probe count still grows with fill, but at 8 probes per
// mapped block at the default geometry against 1028 for the full scan.
package flashchan

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"sdf/internal/nand"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// cpSlots is the number of dedicated checkpoint blocks (A/B
// alternation) reserved at the top of plane 0 when checkpointing is
// enabled.
const cpSlots = 2

// cpMagic marks a checkpoint chunk page ("SDFC").
const cpMagic = 0x53444643

// cpChunkHeader is the per-page chunk envelope: magic(4) + cpSeq(8) +
// idx(2) + count(2) + payloadLen(4) + payloadCRC(4) + chunkLen(4).
const cpChunkHeader = 28

// blockMeta is the engine's in-memory record of a written logical
// block — the identity the write path stamped into the out-of-band
// area, kept in FTL DRAM so checkpoints can be cut without re-reading
// the media.
type blockMeta struct {
	id     WriteID
	tagged bool
	seq    uint64
}

// cpEntry is one logical block in a decoded checkpoint.
type cpEntry struct {
	lbn    int
	id     WriteID
	tagged bool
	seq    uint64
	phys   []int // physical block per plane
}

// checkpointState is a decoded checkpoint image.
type checkpointState struct {
	seq       uint64 // checkpoint generation (newest valid wins)
	watermark uint64 // nextSeq at checkpoint time
	entries   []cpEntry
}

// cpEnabled reports whether the channel reserves checkpoint blocks
// and runs the periodic checkpoint policy.
func (ch *Channel) cpEnabled() bool { return ch.cfg.CheckpointEvery > 0 }

// cpHome reports whether (plane pi, block phys) is a dedicated
// checkpoint block: the top cpSlots indices of plane 0. Fixed indices
// keep the location re-derivable at mount with no bootstrap scan.
func (ch *Channel) cpHome(pi, phys int) bool {
	return ch.cpEnabled() && pi == 0 && phys >= ch.cfg.Nand.BlocksPerPlane-cpSlots
}

// cpBlock returns the physical block index of checkpoint slot s.
func (ch *Channel) cpBlock(s int) int {
	return ch.cfg.Nand.BlocksPerPlane - cpSlots + s
}

// probeCost is the virtual time of one recovery/verification probe: an
// array read plus the bus transfer of n metadata bytes.
func (ch *Channel) probeCost(n int) time.Duration {
	return ch.cfg.Nand.TRead + ch.cfg.BusOverhead + sim.ByteTime(n, ch.cfg.BusRate)
}

// CheckpointStats returns (checkpoints written, failed attempts,
// write commands since the last successful checkpoint).
func (ch *Channel) CheckpointStats() (written, failures int64, age int) {
	return ch.checkpoints, ch.cpFailures, ch.writesSinceCp
}

// Checkpoint persists the channel's FTL state to the next checkpoint
// slot as one engine command. It is also run automatically every
// Config.CheckpointEvery successful write commands.
func (ch *Channel) Checkpoint(p *sim.Proc) error {
	if !ch.cpEnabled() {
		return fmt.Errorf("flashchan: checkpointing disabled (Config.CheckpointEvery = 0)")
	}
	if err := ch.checkAlive(); err != nil {
		return err
	}
	ch.acquire(p, ch.writePrio())
	defer ch.mu.Release()
	if err := ch.checkAlive(); err != nil { // killed while queued
		return err
	}
	return ch.checkpointLocked(p)
}

// maybeCheckpoint runs the periodic checkpoint policy after a
// successful write command (engine held): a checkpoint fires when
// CheckpointEvery writes have accumulated. A failed checkpoint write
// is counted and absorbed: the data write already succeeded, and the
// previous checkpoint still stands — recovery falls back to it.
func (ch *Channel) maybeCheckpoint(p *sim.Proc) {
	if !ch.cpEnabled() {
		return
	}
	ch.writesSinceCp++
	if ch.writesSinceCp < ch.cfg.CheckpointEvery {
		return
	}
	if err := ch.checkpointLocked(p); err != nil {
		// Back off a full period before retrying; the checkpoint age
		// restarts too.
		ch.writesSinceCp = 0
		ch.lastCp = ch.env.Now()
	}
}

// checkpointLocked writes one checkpoint with the engine held: erase
// the slot holding the older image, program the chunked payload, read
// it back, and only on a verified match advance the generation so the
// new image supersedes the old. Any failure — a torn program at power
// loss, a worn-out slot, a verify mismatch — leaves the previous
// checkpoint authoritative.
func (ch *Channel) checkpointLocked(p *sim.Proc) error {
	t := ch.env.Tracer()
	span := t.Begin(ch.env.Now(), p.Span(), "chan/checkpoint", trace.PhaseRecovery)
	defer func() { t.End(ch.env.Now(), span) }()

	ps := &ch.planes[0]
	phys := ch.cpBlock(ch.cpSlot)
	payload := ch.encodeCheckpointPayload()
	chunks := cpChunks(ch.cpSeq, payload, ch.cfg.Nand.PageSize)
	if len(chunks) > ch.cfg.Nand.PagesPerBlock {
		ch.cpFailures++
		return fmt.Errorf("flashchan: checkpoint payload %d bytes exceeds slot capacity", len(payload))
	}
	if err := ps.plane.Erase(p, phys); err != nil {
		ch.cpFailures++
		return fmt.Errorf("flashchan: checkpoint slot erase: %w", err)
	}
	parent := p.Span()
	for pg, rec := range chunks {
		p.WaitUntil(ch.transferAt(ch.env.Now(), len(rec), parent))
		if err := ps.plane.ProgramOOB(p, phys, pg, nil, rec); err != nil {
			ch.cpFailures++
			return fmt.Errorf("flashchan: checkpoint program: %w", err)
		}
	}
	// Verify before superseding: read every chunk page back and decode
	// the whole image. The probe stream is sequential on the plane.
	ps.plane.Timeline().Occupy(p, time.Duration(len(chunks))*ch.probeCost(ch.cfg.Nand.PageSize))
	got, _, ok := readCheckpointSlot(ps.plane, phys, len(ch.planes))
	if !ok || got.seq != ch.cpSeq {
		ch.cpFailures++
		return fmt.Errorf("flashchan: checkpoint verify failed on slot %d", ch.cpSlot)
	}
	ch.cpSeq++
	ch.cpSlot = (ch.cpSlot + 1) % cpSlots
	ch.writesSinceCp = 0
	ch.lastCp = ch.env.Now()
	ch.checkpoints++
	return nil
}

// CheckpointAge returns the virtual time elapsed since the last
// successful checkpoint (or since mount, if none has succeeded yet).
func (ch *Channel) CheckpointAge() time.Duration {
	return ch.env.Now() - ch.lastCp
}

// encodeCheckpointPayload serializes the live FTL state: the nextSeq
// watermark and, for every written logical block, its identity and
// per-plane physical placement. Erase counts and bad-block marks are
// not carried — they live in the media itself and survive power loss
// there (DESIGN.md §14).
func (ch *Channel) encodeCheckpointPayload() []byte {
	lbns := make([]int, 0, len(ch.meta))
	for lbn := range ch.meta {
		complete := true
		for i := range ch.planes {
			if _, ok := ch.planes[i].mapping[lbn]; !ok {
				complete = false
				break
			}
		}
		if complete {
			lbns = append(lbns, lbn)
		}
	}
	sort.Ints(lbns)
	entrySize := 4 + 16 + 8 + 1 + 4*len(ch.planes)
	buf := make([]byte, 0, 12+len(lbns)*entrySize)
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:8]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64(ch.nextSeq)
	put32(uint32(len(lbns)))
	for _, lbn := range lbns {
		m := ch.meta[lbn]
		put32(uint32(lbn))
		put64(m.id.Hi)
		put64(m.id.Lo)
		put64(m.seq)
		var flags byte
		if m.tagged {
			flags |= 1
		}
		buf = append(buf, flags)
		for i := range ch.planes {
			put32(uint32(ch.planes[i].mapping[lbn]))
		}
	}
	return buf
}

// decodeCheckpointPayload is the inverse of encodeCheckpointPayload.
func decodeCheckpointPayload(buf []byte, planes int) (*checkpointState, bool) {
	if len(buf) < 12 {
		return nil, false
	}
	cp := &checkpointState{watermark: binary.LittleEndian.Uint64(buf[0:])}
	count := int(binary.LittleEndian.Uint32(buf[8:]))
	entrySize := 4 + 16 + 8 + 1 + 4*planes
	if count < 0 || len(buf) != 12+count*entrySize {
		return nil, false
	}
	off := 12
	for i := 0; i < count; i++ {
		e := cpEntry{
			lbn: int(binary.LittleEndian.Uint32(buf[off:])),
			id: WriteID{
				Hi: binary.LittleEndian.Uint64(buf[off+4:]),
				Lo: binary.LittleEndian.Uint64(buf[off+12:]),
			},
			seq:    binary.LittleEndian.Uint64(buf[off+20:]),
			tagged: buf[off+28]&1 != 0,
		}
		off += 29
		e.phys = make([]int, planes)
		for pl := 0; pl < planes; pl++ {
			e.phys[pl] = int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		cp.entries = append(cp.entries, e)
	}
	return cp, true
}

// cpChunks splits a checkpoint payload into per-page chunk records.
// Every chunk repeats the generation, the chunk count, and the
// whole-payload CRC, so a reader can reject a torn or mixed-
// generation slot from any single intact page.
func cpChunks(cpSeq uint64, payload []byte, pageSize int) [][]byte {
	capacity := pageSize - cpChunkHeader
	count := (len(payload) + capacity - 1) / capacity
	if count == 0 {
		count = 1
	}
	crc := crc32.ChecksumIEEE(payload)
	chunks := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		lo := i * capacity
		hi := lo + capacity
		if hi > len(payload) {
			hi = len(payload)
		}
		part := payload[lo:hi]
		rec := make([]byte, cpChunkHeader+len(part))
		binary.LittleEndian.PutUint32(rec[0:], cpMagic)
		binary.LittleEndian.PutUint64(rec[4:], cpSeq)
		binary.LittleEndian.PutUint16(rec[12:], uint16(i))
		binary.LittleEndian.PutUint16(rec[14:], uint16(count))
		binary.LittleEndian.PutUint32(rec[16:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[20:], crc)
		binary.LittleEndian.PutUint32(rec[24:], uint32(len(part)))
		copy(rec[cpChunkHeader:], part)
		chunks = append(chunks, rec)
	}
	return chunks
}

// readCheckpointSlot decodes the checkpoint image in one slot block,
// returning the decoded state, the number of pages probed (frontier
// included), and whether the image is intact: all chunks present with
// one generation, payload reassembled, CRC verified. A torn program
// (no spare retained), a partial erase, or a generation mix from an
// interrupted rewrite all fail cleanly here.
func readCheckpointSlot(pl *nand.Plane, phys, planes int) (*checkpointState, int64, bool) {
	probes := int64(1) // frontier probe
	wp := pl.WritePtr(phys)
	if wp <= 0 {
		return nil, probes, false
	}
	var payload []byte
	var seq uint64
	var count, payloadLen int
	var crc uint32
	for pg := 0; pg < wp; pg++ {
		probes++
		rec := pl.Spare(phys, pg)
		if len(rec) < cpChunkHeader || binary.LittleEndian.Uint32(rec[0:]) != cpMagic {
			return nil, probes, false
		}
		idx := int(binary.LittleEndian.Uint16(rec[12:]))
		n := int(binary.LittleEndian.Uint16(rec[14:]))
		chunkLen := int(binary.LittleEndian.Uint32(rec[24:]))
		if idx != pg || chunkLen != len(rec)-cpChunkHeader {
			return nil, probes, false
		}
		if pg == 0 {
			seq = binary.LittleEndian.Uint64(rec[4:])
			count = n
			payloadLen = int(binary.LittleEndian.Uint32(rec[16:]))
			crc = binary.LittleEndian.Uint32(rec[20:])
		} else if binary.LittleEndian.Uint64(rec[4:]) != seq || n != count {
			return nil, probes, false
		}
		payload = append(payload, rec[cpChunkHeader:]...)
		if pg == count-1 {
			break
		}
	}
	if count == 0 || wp < count || len(payload) != payloadLen || crc32.ChecksumIEEE(payload) != crc {
		return nil, probes, false
	}
	cp, ok := decodeCheckpointPayload(payload, planes)
	if !ok {
		return nil, probes, false
	}
	cp.seq = seq
	return cp, probes, true
}

// loadCheckpoint probes both checkpoint slots and returns the newest
// valid image, the slot it came from (-1 if none), and the total probe
// count. The probe stream is charged on plane 0's timeline.
func (ch *Channel) loadCheckpoint(p *sim.Proc) (*checkpointState, int, int64) {
	ps := &ch.planes[0]
	var best *checkpointState
	bestSlot := -1
	var probes int64
	for s := 0; s < cpSlots; s++ {
		cp, n, ok := readCheckpointSlot(ps.plane, ch.cpBlock(s), len(ch.planes))
		probes += n
		if ok && (best == nil || cp.seq > best.seq) {
			best = cp
			bestSlot = s
		}
	}
	ps.plane.Timeline().Occupy(p, time.Duration(probes)*ch.probeCost(ch.cfg.Nand.PageSize))
	return best, bestSlot, probes
}
