// Crash durability for CCDB: the write-ahead log, the patch
// manifest, and mount-time replay.
package ccdb

import (
	"errors"
	"fmt"
	"slices"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// ErrJournalHalted is returned by Put once the journal's log device
// has been lost to a power cut: the write cannot be made durable, so
// it is never acknowledged and never enters the memtable.
var ErrJournalHalted = errors.New("ccdb: journal halted by power loss")

// logRecord is one journaled Put.
type logRecord struct {
	key   string
	size  int
	value []byte // nil in timing mode
}

type manifestOp uint8

const (
	manifestAdd manifestOp = iota
	manifestDel
)

// manifestRecord is one patch lifecycle event. Add records carry the
// patch's full DRAM index (keys, offsets, sizes) plus its run
// placement, so replay rebuilds the tier structure without touching
// the data device; del records name a retired ref.
type manifestRecord struct {
	op    manifestOp
	ref   Ref
	tier  int
	runID uint64
	keys  []string
	offs  []int
	sizes []int
}

// Journal models the separate mirrored log device that carries a
// slice's write-ahead log and patch manifest. Appends are durable the
// moment they return — the log device is mirrored and outlives a
// power loss of the SDF it fronts — so after a crash mountSlice can
// rebuild the slice from it. The log's bandwidth is never the
// bottleneck (it is not the device under study), so the simulation
// charges its appends no virtual time; what the journal defines is
// exactly which state a crash preserves: a Put whose append was
// rejected (Halt already called) is never acknowledged, and a patch
// whose manifest add is missing is an orphan that replay frees.
//
// All methods are safe on a nil receiver, so a slice configured
// without a journal behaves exactly as before.
type Journal struct {
	puts     []logRecord
	manifest []manifestRecord
	nextRun  uint64
	halted   bool
	// live counts, per ref, the manifest's adds that no del has cancelled
	// yet, and liveRecords sums them: what replayManifest would find,
	// kept as the records are appended so that deciding whether a rewrite
	// is due costs no replay.
	live        map[Ref]int
	liveRecords int
	// compactions counts manifest rewrites; truncatedPuts counts log
	// records dropped at flush watermarks. Both feed the registry.
	compactions   int64
	truncatedPuts int64
}

// manifestSlack is how many dead manifest records are tolerated before
// a rewrite: the manifest is compacted once it exceeds twice the live
// record count plus this slack, so replay work stays proportional to
// live state rather than to lifetime churn.
const manifestSlack = 64

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Halt marks the crash instant: every later append is rejected, so
// writes racing the power cut are never acknowledged. It is a pure
// flag flip, safe to call from scheduler context (an env.Schedule
// callback alongside Device.PowerLoss).
func (j *Journal) Halt() {
	if j != nil {
		j.halted = true
	}
}

// appendPut journals one write ahead of its memtable insert.
func (j *Journal) appendPut(key string, value []byte, size int) error {
	if j == nil {
		return nil
	}
	if j.halted {
		return ErrJournalHalted
	}
	j.puts = append(j.puts, logRecord{key: key, size: size, value: value})
	return nil
}

// putCount returns the log length — the flush watermark.
func (j *Journal) putCount() int {
	if j == nil {
		return 0
	}
	return len(j.puts)
}

// Bytes returns the replayable write-ahead payload currently held by
// the log (puts appended but not yet truncated by a flush) — the
// journal's replay backlog. Nil-safe, like every Journal method.
func (j *Journal) Bytes() int64 {
	if j == nil {
		return 0
	}
	var n int64
	for _, rec := range j.puts {
		n += int64(rec.size)
	}
	return n
}

// appendRun records freshly written patches as one run of the given
// tier under a new run ID. It reports false — recording nothing —
// when the journal is halted; the caller must then also skip its log
// truncation so the entries stay replayable.
func (j *Journal) appendRun(tier int, pts []*patch) bool {
	if j == nil {
		return true
	}
	if j.halted {
		return false
	}
	id := j.nextRun
	j.nextRun++
	if j.live == nil {
		j.live = make(map[Ref]int)
	}
	for _, pt := range pts {
		j.manifest = append(j.manifest, manifestRecord{
			op: manifestAdd, ref: pt.ref, tier: tier, runID: id,
			keys: pt.keys, offs: pt.offs, sizes: pt.sizes,
		})
		j.live[pt.ref]++
		j.liveRecords++
	}
	return true
}

// appendDel records a patch retirement. Dels are what turn manifest
// records dead (the del itself plus the add it cancels), so this is
// the growth edge that triggers compaction.
func (j *Journal) appendDel(ref Ref) {
	if j == nil || j.halted {
		return
	}
	j.manifest = append(j.manifest, manifestRecord{op: manifestDel, ref: ref})
	// A del cancels one add of its ref; for a ref with none (never
	// added, or already retired) it is a no-op, as in replayManifest.
	if n := j.live[ref]; n > 0 {
		if j.live[ref] = n - 1; n == 1 {
			delete(j.live, ref)
		}
		j.liveRecords--
	}
	j.maybeCompact()
}

// truncate drops the oldest n log records once the patch holding
// their entries is durable.
func (j *Journal) truncate(n int) {
	if j == nil || j.halted {
		return
	}
	j.puts = append([]logRecord(nil), j.puts[n:]...)
	j.truncatedPuts += int64(n)
}

// ManifestRecords returns the current manifest length — the replay
// work a mount would do right now.
func (j *Journal) ManifestRecords() int {
	if j == nil {
		return 0
	}
	return len(j.manifest)
}

// Compactions returns how many times the manifest has been rewritten.
func (j *Journal) Compactions() int64 {
	if j == nil {
		return 0
	}
	return j.compactions
}

// TruncatedPuts returns the lifetime count of log records retired at
// flush watermarks.
func (j *Journal) TruncatedPuts() int64 {
	if j == nil {
		return 0
	}
	return j.truncatedPuts
}

// rebuiltRun is one run reassembled from manifest replay, keyed by the
// (tier, run ID) its adds named.
type rebuiltRun struct {
	tier  int
	runID uint64
	r     run
}

// replayManifest folds the manifest into the runs that survive it: an
// add appends its patch to the run named by (tier, run ID) — a new run
// ID opens a new run of its tier, in manifest order, which is the
// original insertion order, so newest-wins lookups keep working — and
// a del removes the patch wherever it lives. A del for an unknown ref
// is a no-op: retiring an aborted compaction output journals a del for
// a ref that was never added. Where a ref is live twice, a del removes
// the copy a scan of the runs in order meets first: the earliest run's,
// earliest in that run.
//
// Runs are indexed by (tier, run ID) and live copies by ref, so replay
// is linear in the manifest: a del leaves a nil tombstone in its run,
// and one pass at the end drops the tombstones.
func (j *Journal) replayManifest() []*rebuiltRun {
	type runKey struct {
		tier  int
		runID uint64
	}
	// liveCopy is a live add at runs[run].r[pos]. A ref's live copies
	// chain through next from newest[ref]; both hold an index into
	// copies plus one, so zero ends the chain.
	type liveCopy struct{ run, pos, next int }
	var runs []*rebuiltRun
	runOf := make(map[runKey]int)
	newest := make(map[Ref]int, len(j.manifest))
	copies := make([]liveCopy, 0, len(j.manifest))
	for i := range j.manifest {
		rec := &j.manifest[i]
		switch rec.op {
		case manifestAdd:
			k := runKey{rec.tier, rec.runID}
			ri, ok := runOf[k]
			if !ok {
				ri = len(runs)
				runOf[k] = ri
				runs = append(runs, &rebuiltRun{tier: rec.tier, runID: rec.runID})
			}
			rr := runs[ri]
			pt := &patch{ref: rec.ref, keys: rec.keys, offs: rec.offs, sizes: rec.sizes}
			pt.index()
			copies = append(copies, liveCopy{run: ri, pos: len(rr.r), next: newest[rec.ref]})
			newest[rec.ref] = len(copies)
			rr.r = append(rr.r, pt)
		case manifestDel:
			prev, first := 0, newest[rec.ref]
			if first == 0 {
				continue
			}
			for p, c := first, copies[first-1].next; c != 0; p, c = c, copies[c-1].next {
				if a, b := copies[c-1], copies[first-1]; a.run < b.run || a.run == b.run && a.pos < b.pos {
					prev, first = p, c
				}
			}
			f := copies[first-1]
			runs[f.run].r[f.pos] = nil
			if prev == 0 {
				newest[rec.ref] = f.next
			} else {
				copies[prev-1].next = f.next
			}
		}
	}
	for _, rr := range runs {
		rr.r = slices.DeleteFunc(rr.r, func(pt *patch) bool { return pt == nil })
	}
	return runs
}

// maybeCompact rewrites the manifest down to its live records once the
// dead fraction dominates. The rewrite replays the current manifest
// and re-emits one add per surviving patch, preserving run grouping
// and order, so a mount replaying the compacted manifest rebuilds
// byte-identical tiers. It is skipped while halted: a compaction
// racing the power cut must not reorder what the crash preserved.
func (j *Journal) maybeCompact() {
	if j == nil || j.halted || len(j.manifest) <= 2*j.liveRecords+manifestSlack {
		return
	}
	compacted := make([]manifestRecord, 0, j.liveRecords)
	for _, rr := range j.replayManifest() {
		for _, pt := range rr.r {
			compacted = append(compacted, manifestRecord{
				op: manifestAdd, ref: pt.ref, tier: rr.tier, runID: rr.runID,
				keys: pt.keys, offs: pt.offs, sizes: pt.sizes,
			})
		}
	}
	j.manifest = compacted
	j.compactions++
}

// ReplayReport summarizes the journal replay of a remount.
type ReplayReport struct {
	// PatchesRestored and RunsRestored count the manifest survivors
	// readdressed into the tier structure.
	PatchesRestored int
	RunsRestored    int
	// MemReplayed is how many journaled puts were re-applied to the
	// memtable (overflow during replay triggers real flushes).
	MemReplayed int
	// OrphansFreed counts device blocks holding patches whose
	// manifest add never landed — the crash hit between the block
	// write and the manifest append — which replay frees.
	OrphansFreed int
	// ManifestRecords is the total manifest length replayed.
	ManifestRecords int
}

// refLister is implemented by stores that can enumerate the blocks
// the underlying device actually holds; mountSlice uses it to detect
// and free orphaned patches.
type refLister interface{ LiveRefs() []Ref }

// mountSlice rebuilds a slice from its journal over a remounted
// store. The manifest replay restores every durable patch's DRAM
// index and tier placement, orphaned device blocks (written but never
// manifested) are freed, and the journaled puts that had not reached
// a durable patch are re-applied to the memtable. The background
// compactor starts only after the tiers are rebuilt.
func mountSlice(p *sim.Proc, env *sim.Env, store Storage, cfg Config) (*Slice, ReplayReport, error) {
	var rep ReplayReport
	j := cfg.Journal
	// The remount brings the log device back online.
	j.halted = false
	s := newSlice(env, store, cfg)
	if t := env.Tracer(); t != nil {
		span := t.Begin(env.Now(), p.Span(), "ccdb/replay", trace.PhaseRecovery)
		defer func() { t.End(env.Now(), span) }()
	}
	rep.ManifestRecords = len(j.manifest)

	// Replay the manifest into the runs that survive it (see
	// replayManifest for the fold semantics).
	runs := j.replayManifest()
	for _, rr := range runs {
		if len(rr.r) == 0 {
			continue
		}
		for len(s.tiers) <= rr.tier {
			s.tiers = append(s.tiers, nil)
		}
		s.tiers[rr.tier] = append(s.tiers[rr.tier], rr.r)
		rep.RunsRestored++
		rep.PatchesRestored += len(rr.r)
	}

	// Free orphans: device blocks the recovered layer still addresses
	// but no live manifest record claims.
	if lr, ok := store.(refLister); ok {
		live := make(map[Ref]bool)
		for _, rr := range runs {
			for _, pt := range rr.r {
				live[pt.ref] = true
			}
		}
		for _, ref := range lr.LiveRefs() {
			if live[ref] {
				continue
			}
			if err := store.Free(p, ref); err != nil {
				return nil, rep, fmt.Errorf("ccdb: replay orphan free: %w", err)
			}
			rep.OrphansFreed++
		}
	}

	// Re-apply the unflushed tail of the write-ahead log. Put
	// re-journals each record (the log was cleared first), so the
	// watermark accounting of any flush triggered mid-replay stays
	// correct.
	pending := j.puts
	j.puts = nil
	for _, r := range pending {
		if err := s.Put(p, r.key, r.value, r.size); err != nil {
			return nil, rep, fmt.Errorf("ccdb: replay put %q: %w", r.key, err)
		}
		rep.MemReplayed++
	}

	env.Go("ccdb/compactor", s.compactLoop)
	if s.overfullTier() >= 0 {
		s.compactKick.Fire()
	}
	return s, rep, nil
}
