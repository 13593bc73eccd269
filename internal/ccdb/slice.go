package ccdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"sdf/internal/metrics"
	"sdf/internal/sim"
)

// Lookup and write errors.
var (
	ErrNotFound = errors.New("ccdb: key not found")
	ErrTooLarge = errors.New("ccdb: value exceeds patch capacity")
	ErrBadValue = errors.New("ccdb: value length disagrees with declared size")
)

// Config tunes a slice.
type Config struct {
	// PatchBytes is the container/patch capacity — 8 MB, matching the
	// SDF write unit (§2.4).
	PatchBytes int
	// RunsPerTier is the size-tiered compaction fan-in: when a tier
	// accumulates this many runs they are merge-sorted into one run of
	// the next tier.
	RunsPerTier int
	// DataMode stores real value bytes; otherwise only sizes and
	// timing are tracked.
	DataMode bool
	// Journal, when set, models the mirrored log device: Puts append
	// to it before entering the memtable (write-ahead), flushes and
	// compactions record patch-manifest updates on it, and
	// SDFReplica.Remount rebuilds the slice from it after a power
	// loss. nil keeps the old behavior (no durability tracking).
	Journal *Journal
}

// DefaultConfig returns the production parameters.
func DefaultConfig() Config {
	return Config{PatchBytes: 8 << 20, RunsPerTier: 4}
}

// Entry is one KV pair in the memtable.
type Entry struct {
	Key   string
	Size  int
	Value []byte // nil in timing-only mode
}

// patch is one immutable sorted 8 MB block on storage. Its index
// (keys, offsets, sizes) lives permanently in DRAM, so serving a Get
// costs exactly one storage read (§2.4).
type patch struct {
	ref    Ref
	keys   []string
	offs   []int
	sizes  []int
	filter keyFilter
	pins   int
	dead   bool // freed once pins reaches zero
}

// index builds the patch's key filter. The two places a patch is made,
// writePatch and the manifest replay, call it before the patch is
// reachable.
func (pt *patch) index() {
	for _, k := range pt.keys {
		pt.filter.add(keyHash(k))
	}
}

// keyFilter is a Bloom filter over a patch's keys, tested before the
// patch is searched: a Get walks one candidate patch per run, and runs
// whose key ranges overlap are the norm (every flush of random keys
// spans the slice). It is a fixed array, so a patch costs no
// allocation more: 1024 bits and three probes keep a 128-key patch (64
// KB values in 8 MB) at ~3 % false positives, which cost only the
// search they would have cost anyway.
type keyFilter [16]uint64

// keyHash is 64-bit FNV-1a: deterministic, and cheap on short keys.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// probe returns the filter bit of probe i (double hashing).
func probe(h uint64, i uint64) uint64 { return (h + i*(h>>32|1)) % 1024 }

func (f *keyFilter) add(h uint64) {
	for i := uint64(0); i < 3; i++ {
		b := probe(h, i)
		f[b/64] |= 1 << (b % 64)
	}
}

// has reports whether the key hashing to h may be in the patch.
func (f *keyFilter) has(h uint64) bool {
	for i := uint64(0); i < 3; i++ {
		b := probe(h, i)
		if f[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

func (pt *patch) first() string { return pt.keys[0] }
func (pt *patch) last() string  { return pt.keys[len(pt.keys)-1] }

// find returns the index of key in the patch.
func (pt *patch) find(key string) (int, bool) {
	i := sort.SearchStrings(pt.keys, key)
	if i < len(pt.keys) && pt.keys[i] == key {
		return i, true
	}
	return 0, false
}

// run is a sequence of patches sorted by key with disjoint ranges.
type run []*patch

// findPatch returns the patch that may contain key.
func (r run) findPatch(key string) *patch {
	i := sort.Search(len(r), func(i int) bool { return r[i].last() >= key })
	if i < len(r) && r[i].first() <= key {
		return r[i]
	}
	return nil
}

// Slice is one LSM-tree instance serving a key range — the unit of
// data distribution in Baidu's storage system (§2.4). Methods taking a
// *sim.Proc block in virtual time; a slice may be used by many
// processes concurrently.
type Slice struct {
	env     *sim.Env
	store   Storage
	cfg     Config
	mem     []Entry
	memIdx  map[string]int
	memUsed int
	// flushing holds the swapped-out memtable, sorted by key, for the
	// duration of its patch write, keeping those entries readable:
	// without it a key would vanish from lookups for the whole
	// (milliseconds-long) block write, in neither the memtable nor any
	// tier. Once the write is over its backing array, cleared, is the
	// spare the next flush hands the memtable, so the two buffers take
	// turns and a Put does not regrow one.
	flushing []Entry
	spare    []Entry
	tiers    [][]run
	flushMu  *sim.Resource

	compactKick *sim.Signal
	compactBusy bool

	stats Stats
}

// Stats counts slice activity.
type Stats struct {
	Puts            int64
	Gets            int64
	GetsFromMem     int64
	Flushes         int64
	Compactions     int64
	PatchesWritten  int64
	PatchesFreed    int64
	CompactionReads int64 // patches read by merges
}

// NewSlice creates a slice over the given storage and starts its
// background compaction process.
func NewSlice(env *sim.Env, store Storage, cfg Config) *Slice {
	s := newSlice(env, store, cfg)
	env.Go("ccdb/compactor", s.compactLoop)
	return s
}

// newSlice builds the slice without starting the compactor —
// mountSlice rebuilds the tiers first.
func newSlice(env *sim.Env, store Storage, cfg Config) *Slice {
	if cfg.PatchBytes <= 0 {
		cfg.PatchBytes = store.BlockSize()
	}
	if cfg.PatchBytes > store.BlockSize() {
		panic("ccdb: patch larger than storage block")
	}
	if cfg.RunsPerTier < 2 {
		cfg.RunsPerTier = 2
	}
	return &Slice{
		env:         env,
		store:       store,
		cfg:         cfg,
		memIdx:      make(map[string]int),
		flushMu:     sim.NewResource(env, 1),
		compactKick: new(sim.Signal),
	}
}

// Stats returns a snapshot of activity counters.
func (s *Slice) Stats() Stats { return s.stats }

// RegisterMetrics exports the slice's activity counters and
// steady-state gauges against r: memtable bytes, journal replay
// backlog, live patch count, and whether compaction is running.
// Callbacks read in-memory state only — park-free, per the registry's
// callback contract.
func (s *Slice) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.CounterFunc("ccdb_puts_total", func() int64 { return s.stats.Puts }, labels...)
	r.CounterFunc("ccdb_gets_total", func() int64 { return s.stats.Gets }, labels...)
	r.CounterFunc("ccdb_gets_from_mem_total", func() int64 { return s.stats.GetsFromMem }, labels...)
	r.CounterFunc("ccdb_flushes_total", func() int64 { return s.stats.Flushes }, labels...)
	r.CounterFunc("ccdb_compactions_total", func() int64 { return s.stats.Compactions }, labels...)
	r.CounterFunc("ccdb_patches_written_total", func() int64 { return s.stats.PatchesWritten }, labels...)
	r.CounterFunc("ccdb_patches_freed_total", func() int64 { return s.stats.PatchesFreed }, labels...)
	r.CounterFunc("ccdb_compaction_reads_total", func() int64 { return s.stats.CompactionReads }, labels...)
	r.GaugeFunc("ccdb_mem_bytes", func() float64 { return float64(s.memUsed) }, labels...)
	r.GaugeFunc("ccdb_journal_bytes", func() float64 { return float64(s.cfg.Journal.Bytes()) }, labels...)
	r.GaugeFunc("ccdb_manifest_records", func() float64 { return float64(s.cfg.Journal.ManifestRecords()) }, labels...)
	r.CounterFunc("ccdb_manifest_compactions_total", func() int64 { return s.cfg.Journal.Compactions() }, labels...)
	r.CounterFunc("ccdb_journal_truncated_puts_total", func() int64 { return s.cfg.Journal.TruncatedPuts() }, labels...)
	r.GaugeFunc("ccdb_patches", func() float64 { return float64(s.Patches()) }, labels...)
	r.GaugeFunc("ccdb_compacting", func() float64 {
		if s.Compacting() {
			return 1
		}
		return 0
	}, labels...)
}

// Compacting reports whether a merge is running or due.
func (s *Slice) Compacting() bool {
	return s.compactBusy || s.overfullTier() >= 0
}

// Patches returns the number of live patches across all tiers.
func (s *Slice) Patches() int {
	n := 0
	for _, tier := range s.tiers {
		for _, r := range tier {
			n += len(r)
		}
	}
	return n
}

// Put stores a KV pair. value may be nil in timing mode, with size
// giving the value length. When the in-memory container reaches the
// patch capacity it is flushed as one 8 MB block write, and Put blocks
// for that write — giving writers the patch-granular rhythm of the
// production system (§3.3.3). With a journal configured the entry is
// appended to the write-ahead log before it enters the memtable, so a
// nil return means the write is durable: it survives a power loss of
// the SDF through mount-time replay. A Put rejected by a halted
// journal was never acknowledged and never becomes visible.
func (s *Slice) Put(p *sim.Proc, key string, value []byte, size int) error {
	if value != nil && len(value) != size {
		return fmt.Errorf("%w: len=%d size=%d", ErrBadValue, len(value), size)
	}
	if s.entryBytes(key, size) > s.cfg.PatchBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	if s.cfg.DataMode && value != nil {
		value = append([]byte(nil), value...)
	}
	if s.memUsed+s.entryBytes(key, size) > s.cfg.PatchBytes {
		if err := s.Flush(p); err != nil {
			return err
		}
	}
	if err := s.cfg.Journal.appendPut(key, value, size); err != nil {
		return err
	}
	if i, ok := s.memIdx[key]; ok {
		s.memUsed += size - s.mem[i].Size
		s.mem[i] = Entry{Key: key, Size: size, Value: value}
	} else {
		s.memIdx[key] = len(s.mem)
		s.mem = append(s.mem, Entry{Key: key, Size: size, Value: value})
		s.memUsed += s.entryBytes(key, size)
	}
	s.stats.Puts++
	return nil
}

// entryBytes is the container space an entry occupies (value plus a
// nominal per-key metadata charge).
func (s *Slice) entryBytes(key string, size int) int {
	return size + len(key) + 16
}

// Flush writes the container out as one patch. It is a no-op on an
// empty container.
func (s *Slice) Flush(p *sim.Proc) error {
	s.flushMu.Acquire(p)
	defer s.flushMu.Release()
	if len(s.mem) == 0 {
		return nil
	}
	entries := s.mem
	watermark := s.cfg.Journal.putCount()
	s.mem, s.spare = s.spare, nil
	clear(s.memIdx) // the flushing batch is found by binary search
	s.memUsed = 0
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	s.flushing = entries
	pt, err := s.writePatch(p, entries)
	s.flushing = nil
	if err != nil {
		// The patch never landed (dead or powered-off channel):
		// return the entries to the memtable so they stay visible and
		// get another chance on the next flush. Keys overwritten by
		// puts that arrived during the failed write keep the newer
		// value.
		s.mergeBack(entries)
	}
	clear(entries)
	s.spare = entries[:0]
	if err != nil {
		return err
	}
	// The patch is durable; manifest it and truncate the log records
	// it covers. A halted journal skips both together, leaving the
	// entries replayable from the log.
	if s.cfg.Journal.appendRun(0, []*patch{pt}) {
		s.cfg.Journal.truncate(watermark)
	}
	s.insertRun(0, run{pt})
	s.stats.Flushes++
	return nil
}

// mergeBack reinstates entries from a failed patch write.
func (s *Slice) mergeBack(entries []Entry) {
	for _, e := range entries {
		if _, ok := s.memIdx[e.Key]; ok {
			continue
		}
		s.memIdx[e.Key] = len(s.mem)
		s.mem = append(s.mem, e)
		s.memUsed += s.entryBytes(e.Key, e.Size)
	}
}

// writePatch serializes sorted entries into one block write.
func (s *Slice) writePatch(p *sim.Proc, entries []Entry) (*patch, error) {
	pt := &patch{
		keys:  make([]string, len(entries)),
		offs:  make([]int, len(entries)),
		sizes: make([]int, len(entries)),
	}
	var payload []byte
	if s.cfg.DataMode {
		payload = make([]byte, s.store.BlockSize())
	}
	off := 0
	for i, e := range entries {
		pt.keys[i], pt.offs[i], pt.sizes[i] = e.Key, off, e.Size
		if payload != nil && e.Value != nil {
			copy(payload[off:], e.Value)
		}
		off += e.Size
	}
	pt.index()
	ref, err := s.store.Write(p, payload)
	if err != nil {
		return nil, err
	}
	pt.ref = ref
	s.stats.PatchesWritten++
	return pt, nil
}

// insertRun adds a run to a tier and wakes the compactor if the tier
// is over its fan-in.
func (s *Slice) insertRun(tier int, r run) {
	for len(s.tiers) <= tier {
		s.tiers = append(s.tiers, nil)
	}
	s.tiers[tier] = append(s.tiers[tier], r)
	if len(s.tiers[tier]) >= s.cfg.RunsPerTier {
		s.compactKick.Fire()
	}
}

// Get returns the value (data mode) and size for key. The lookup
// walks the memtable, then runs from newest to oldest; at most one
// storage read is issued.
func (s *Slice) Get(p *sim.Proc, key string) ([]byte, int, error) {
	s.stats.Gets++
	if i, ok := s.memIdx[key]; ok {
		s.stats.GetsFromMem++
		e := s.mem[i]
		return e.Value, e.Size, nil
	}
	// An entry mid-flush is older than the live memtable but newer
	// than every patch.
	if i, ok := slices.BinarySearchFunc(s.flushing, key, func(e Entry, k string) int {
		return strings.Compare(e.Key, k)
	}); ok {
		s.stats.GetsFromMem++
		e := s.flushing[i]
		return e.Value, e.Size, nil
	}
	// Tier 0 holds the newest data; within a tier, later runs are
	// newer.
	h := keyHash(key)
	for _, tier := range s.tiers {
		for i := len(tier) - 1; i >= 0; i-- {
			pt := tier[i].findPatch(key)
			if pt == nil || !pt.filter.has(h) {
				continue
			}
			idx, ok := pt.find(key)
			if !ok {
				continue
			}
			return s.readEntry(p, pt, idx)
		}
	}
	return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// readEntry performs the single storage read for entry idx of pt.
func (s *Slice) readEntry(p *sim.Proc, pt *patch, idx int) ([]byte, int, error) {
	pt.pins++
	defer s.unpin(pt)
	data, err := s.store.ReadAt(p, pt.ref, pt.offs[idx], pt.sizes[idx])
	if err != nil {
		return nil, 0, err
	}
	return data, pt.sizes[idx], nil
}

// unpin releases a reader reference, freeing the patch if it was
// retired while being read.
func (s *Slice) unpin(pt *patch) {
	pt.pins--
	if pt.dead && pt.pins == 0 {
		s.env.Go("ccdb/free", func(p *sim.Proc) {
			//sdflint:allow errdrop the manifest del is already durable; a failed free leaves an orphan the next mount's replay reclaims
			_ = s.store.Free(p, pt.ref)
		})
		s.stats.PatchesFreed++
	}
}

// retire frees a patch now or when its last reader finishes. The
// manifest del lands before the (possibly blocking) device free, so a
// crash mid-free leaves at worst an orphan for replay to reclaim.
func (s *Slice) retire(p *sim.Proc, pt *patch) {
	s.cfg.Journal.appendDel(pt.ref)
	pt.dead = true
	if pt.pins == 0 {
		//sdflint:allow errdrop the manifest del is already durable; a failed free leaves an orphan the next mount's replay reclaims
		_ = s.store.Free(p, pt.ref)
		s.stats.PatchesFreed++
	}
}

// Scan reads every live patch in full using the given number of
// concurrent reader processes — the access pattern of inverted-index
// construction (§3.3.2, Figure 13; the production system uses six
// threads per slice). It returns the total bytes read from storage.
func (s *Slice) Scan(p *sim.Proc, threads int) (int64, error) {
	if threads < 1 {
		threads = 1
	}
	var patches []*patch
	for _, tier := range s.tiers {
		for _, r := range tier {
			patches = append(patches, r...)
		}
	}
	for _, pt := range patches {
		pt.pins++
	}
	next := 0
	var total int64
	var firstErr error
	var workers []*sim.Proc
	for i := 0; i < threads; i++ {
		w := s.env.Go("ccdb/scan", func(wp *sim.Proc) {
			for next < len(patches) {
				pt := patches[next]
				next++
				n, err := s.scanPatch(wp, pt)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				total += n
			}
		})
		workers = append(workers, w)
	}
	for _, w := range workers {
		p.Join(w)
	}
	for _, pt := range patches {
		s.unpin(pt)
	}
	return total, firstErr
}

// scanPatch reads one patch end to end.
func (s *Slice) scanPatch(p *sim.Proc, pt *patch) (int64, error) {
	if len(pt.keys) == 0 {
		return 0, nil
	}
	last := len(pt.keys) - 1
	span := pt.offs[last] + pt.sizes[last]
	if span == 0 {
		return 0, nil
	}
	if _, err := s.store.ReadAt(p, pt.ref, 0, span); err != nil {
		return 0, err
	}
	return int64(span), nil
}
