// Mount-time recovery of the block layer after power loss.
package blocklayer

import (
	"fmt"

	"sdf/internal/core"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// MountStats summarizes a remount.
type MountStats struct {
	// RecoveredBlocks is how many tagged blocks came back addressable.
	RecoveredBlocks int
	// TornDiscarded counts physical blocks the channel scans dropped
	// as incomplete (torn writes); StaleDiscarded counts superseded
	// generations; UntaggedDiscarded counts complete blocks written
	// without a write ID, which the layer cannot address and frees.
	TornDiscarded     int
	StaleDiscarded    int
	UntaggedDiscarded int
	// PartialErases counts erase pulses the power loss interrupted.
	PartialErases int
	// ScannedBlocks and ProbedPages size the device-wide scan.
	ScannedBlocks int
	ProbedPages   int64
	// QuarantinedChannels is how many channels entered an initial
	// quarantine window because their media held crash damage.
	QuarantinedChannels int
	// CheckpointsFound counts channels that mounted from a valid FTL
	// checkpoint; CheckpointHits counts physical blocks those
	// checkpoints vouched for (single-probe validation instead of a
	// full out-of-band walk — DESIGN.md §14).
	CheckpointsFound int
	CheckpointHits   int
	// ScrubQueued is how many crash-suspect blocks (torn writes,
	// partial erases) were queued for an eager background re-erase
	// before rejoining the free pool.
	ScrubQueued int
}

// Mount rebuilds a block layer over a remounted device: it runs every
// channel's recovery scan, readdresses the tagged blocks it reports,
// returns everything else (untagged, torn, stale, and empty blocks)
// to the erase pools, and puts channels whose media shows crash
// damage into an initial quarantine window — suspect blocks must
// survive a fresh erase before they rejoin circulation, and a suspect
// channel must prove itself before taking new writes. The erasers
// start only after the pools are rebuilt.
func Mount(p *sim.Proc, env *sim.Env, dev *core.Device, cfg Config) (*Layer, MountStats, error) {
	l := newLayer(env, dev, cfg)
	var st MountStats
	end := p.BeginOp("blocklayer/mount")
	defer end()
	if t := env.Tracer(); t != nil {
		span := t.Begin(env.Now(), p.Span(), "blocklayer/rebuild", trace.PhaseRecovery)
		defer func() { t.End(env.Now(), span) }()
	}
	reports, err := dev.Recover(p)
	if err != nil {
		return nil, st, fmt.Errorf("blocklayer: mount: %w", err)
	}
	for c, rep := range reports {
		cs := l.chans[c]
		st.TornDiscarded += rep.TornBlocks
		st.StaleDiscarded += rep.StaleBlocks
		st.PartialErases += rep.PartialErases
		st.ScannedBlocks += rep.ScannedBlocks
		st.ProbedPages += rep.ProbedPages
		if rep.CheckpointFound {
			st.CheckpointsFound++
		}
		st.CheckpointHits += rep.CheckpointHits
		recovered := make(map[int]bool, len(rep.Recovered))
		for _, rb := range rep.Recovered {
			if !rb.Tagged {
				// Complete but anonymous: nothing can ever read it
				// through this layer, so reclaim the space.
				st.UntaggedDiscarded++
				continue
			}
			id := BlockID(rb.ID.Lo)
			if _, dup := l.blocks[id]; dup {
				// Two channels claiming one ID cannot happen through
				// this layer's write path; keep the first (lowest
				// channel) deterministically and reclaim the other.
				continue
			}
			l.blocks[id] = Handle{Channel: c, LBN: rb.LBN}
			recovered[rb.LBN] = true
			st.RecoveredBlocks++
		}
		for lbn := 0; lbn < dev.BlocksPerChannel(); lbn++ {
			if !recovered[lbn] {
				cs.dirty = append(cs.dirty, lbn)
			}
		}
		if rep.TornBlocks > 0 || rep.PartialErases > 0 {
			l.quarantine(c)
			st.QuarantinedChannels++
			// Torn-block scrubbing: crash-damaged media gets that many
			// eager re-erases — the eraser skips its idle wait until
			// the suspect backlog is scrubbed, so partially-programmed
			// and partially-erased blocks are cleaned before the pool
			// re-enters steady-state circulation.
			suspect := rep.TornBlocks + rep.PartialErases
			if suspect > len(cs.dirty) {
				suspect = len(cs.dirty)
			}
			cs.scrubBacklog = suspect
			st.ScrubQueued += suspect
		}
	}
	l.startErasers()
	return l, st, nil
}
