package ccdb

import (
	"slices"
	"strings"

	"sdf/internal/sim"
)

// compactLoop is the slice's background compactor: whenever a tier
// reaches the fan-in it merge-sorts all of that tier's runs into one
// run of the next tier. Each merge reads every input patch in full and
// writes fresh output patches — the workload that, combined with
// client writes, defines the Figure 14 experiment. Compaction requests
// share the device with foreground traffic through the ordinary
// queues (the paper leaves priority scheduling as future work; §2.4).
func (s *Slice) compactLoop(p *sim.Proc) {
	for {
		if !s.compactKick.Fired() {
			p.Await(s.compactKick)
		}
		s.compactKick = sim.NewSignal(s.env)
		for {
			tier := s.overfullTier()
			if tier < 0 {
				break
			}
			s.compactBusy = true
			ok := s.compactTier(p, tier)
			s.compactBusy = false
			if !ok {
				// The merge could not write its outputs (dead or
				// powered-off channel). Failed writes consume no
				// virtual time, so retrying at this instant would
				// spin forever; park until the next flush kicks us.
				break
			}
		}
	}
}

// overfullTier returns the lowest tier at or over the fan-in, or -1.
func (s *Slice) overfullTier() int {
	for i, tier := range s.tiers {
		if len(tier) >= s.cfg.RunsPerTier {
			return i
		}
	}
	return -1
}

// compactTier merges every run of the tier into one run of tier+1.
// It reports false when an output write failed; the merge is then
// aborted with the inputs left fully intact.
func (s *Slice) compactTier(p *sim.Proc, tier int) bool {
	// Snapshot the tier's current runs but leave them visible: lookups
	// during the (long) merge must still see this data. New flushes
	// append behind the snapshot and are not part of this merge.
	inputs := append([]run(nil), s.tiers[tier]...)

	// Read every input patch in full (large sequential reads), then
	// merge the in-memory indexes. Later runs are newer and win ties.
	type tagged struct {
		Entry
		age int // higher is newer
	}
	n := 0
	for _, r := range inputs {
		for _, pt := range r {
			n += len(pt.keys)
		}
	}
	all := make([]tagged, 0, n)
	for age, r := range inputs {
		for _, pt := range r {
			//sdflint:allow errdrop a failed patch read degrades its entries to index-only; compaction must merge what it can, not abort on media faults
			data, _ := s.readPatchAll(p, pt)
			for i, k := range pt.keys {
				e := Entry{Key: k, Size: pt.sizes[i]}
				if data != nil {
					e.Value = data[pt.offs[i] : pt.offs[i]+pt.sizes[i]]
				}
				all = append(all, tagged{Entry: e, age: age})
			}
			s.stats.CompactionReads++
		}
	}

	// Newest-wins de-duplication. Inputs are sorted, so a linear merge
	// would suffice; for clarity we sort by (key, -age), which is
	// O(n log n) on in-memory metadata, not the simulated cost (the
	// device reads and writes above and below are). A run holds a key
	// at most once, so the order is total.
	slices.SortFunc(all, func(a, b tagged) int {
		if c := strings.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return b.age - a.age
	})
	merged := make([]Entry, 0, len(all))
	for i, e := range all {
		if i > 0 && all[i-1].Key == e.Key {
			continue // older duplicate
		}
		merged = append(merged, e.Entry)
	}

	// Write the merged run as full patches, each a stretch of merged.
	var out run
	var werr error
	first, used := 0, 0
	flushBatch := func(end int) {
		if first == end || werr != nil {
			return
		}
		pt, err := s.writePatch(p, merged[first:end])
		if err != nil {
			werr = err
		} else {
			out = append(out, pt)
		}
		first, used = end, 0
	}
	for i, e := range merged {
		eb := s.entryBytes(e.Key, e.Size)
		if used+eb > s.cfg.PatchBytes {
			flushBatch(i)
		}
		used += eb
	}
	flushBatch(len(merged))
	if werr != nil {
		// Abort: free whatever outputs did land and keep the inputs.
		// Their manifest adds were never written, so crash replay
		// never sees the partial merge either (retire journals a del
		// for a ref that was never added, which replay ignores).
		for _, pt := range out {
			s.retire(p, pt)
		}
		return false
	}

	// The whole output run is durable: manifest it as one atomic
	// group, install it, then drop the merged runs (they are the
	// oldest entries of the tier; newer flushes appended after the
	// snapshot stay) and retire their patches.
	if len(out) > 0 {
		s.cfg.Journal.appendRun(tier+1, out)
		s.insertRun(tier+1, out)
	}
	s.tiers[tier] = s.tiers[tier][len(inputs):]
	for _, r := range inputs {
		for _, pt := range r {
			s.retire(p, pt)
		}
	}
	s.stats.Compactions++
	return true
}

// readPatchAll reads a patch end to end and returns its payload (nil
// in timing mode).
func (s *Slice) readPatchAll(p *sim.Proc, pt *patch) ([]byte, error) {
	if len(pt.keys) == 0 {
		return nil, nil
	}
	last := len(pt.keys) - 1
	span := pt.offs[last] + pt.sizes[last]
	if span == 0 {
		return nil, nil
	}
	return s.store.ReadAt(p, pt.ref, 0, span)
}
