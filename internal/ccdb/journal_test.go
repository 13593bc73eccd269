package ccdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// journalRig builds a data-retaining SDF replica for crash-and-remount
// tests.
func journalRig(t *testing.T, env *sim.Env) *SDFReplica {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	r, err := NewSDFReplica(env, cfg, blocklayer.DefaultConfig(), Config{RunsPerTier: 4, DataMode: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// remountSlice crashes nothing further — the replica must already be
// powered off — and rebuilds the slice from the surviving media in a
// fresh environment.
func remountSlice(t *testing.T, r *SDFReplica) (*sim.Env, *Slice, ReplayReport) {
	t.Helper()
	env := sim.NewEnv()
	var rep ReplayReport
	var err error
	boot := env.Go("mount", func(p *sim.Proc) {
		_, rep, err = r.Remount(p, env)
	})
	env.RunUntilDone(boot)
	if err != nil {
		t.Fatalf("remount failed: %v", err)
	}
	return env, r.Slice, rep
}

// TestTruncationKeepsUnflushedAckedPut is the journal-truncation
// safety property: a put acknowledged DURING a flush — after the
// flush snapshotted its watermark — must survive the truncation that
// flush performs when its patch lands, and replay after a crash. Only
// the records the patch actually covers may be dropped.
func TestTruncationKeepsUnflushedAckedPut(t *testing.T) {
	env := sim.NewEnv()
	r := journalRig(t, env)
	j, s := r.Journal, r.Slice

	const n = 24
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 1024) }
	fill := env.Go("fill", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := s.Put(p, fmt.Sprintf("k%02d", i), val(i), 1024); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(fill)

	// The flush's patch write takes milliseconds of virtual time; the
	// straggler put lands in that window, after the watermark.
	env.Go("flush", func(p *sim.Proc) {
		if err := s.Flush(p); err != nil {
			t.Error(err)
		}
	})
	var stragglerAcked bool
	env.Schedule(time.Millisecond, func() {
		env.Go("straggler", func(p *sim.Proc) {
			if err := s.Put(p, "straggler", val(99), 1024); err != nil {
				t.Error(err)
				return
			}
			stragglerAcked = true
		})
	})
	env.Run()
	if !stragglerAcked {
		t.Fatal("straggler put never acknowledged")
	}
	if j.TruncatedPuts() != n {
		t.Fatalf("truncated %d log records, want exactly the %d the patch covered", j.TruncatedPuts(), n)
	}
	if j.putCount() != 1 {
		t.Fatalf("journal holds %d records after truncation, want 1 (the straggler)", j.putCount())
	}

	r.PowerLoss()
	env.Close()

	env2, s2, rep := remountSlice(t, r)
	defer env2.Close()
	if rep.MemReplayed != 1 {
		t.Fatalf("replayed %d journaled puts, want 1", rep.MemReplayed)
	}
	verify := env2.Go("verify", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got, _, err := s2.Get(p, fmt.Sprintf("k%02d", i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Errorf("flushed key k%02d after remount: %v", i, err)
				return
			}
		}
		got, _, err := s2.Get(p, "straggler")
		if err != nil || !bytes.Equal(got, val(99)) {
			t.Errorf("straggler after remount: %v", err)
		}
	})
	env2.RunUntilDone(verify)
}

// TestManifestCompactionBoundsReplay churns patches through add/del
// cycles and requires the manifest to stay bounded by live state: the
// compactor rewrites it once dead records dominate, and replay over
// the compacted manifest rebuilds exactly the surviving runs.
func TestManifestCompactionBoundsReplay(t *testing.T) {
	j := NewJournal()
	keep := &patch{ref: Ref(9999), keys: []string{"keep"}, offs: []int{0}, sizes: []int{1}}
	if !j.appendRun(1, []*patch{keep}) {
		t.Fatal("appendRun rejected")
	}
	const churn = 400
	for i := 0; i < churn; i++ {
		pt := &patch{ref: Ref(i), keys: []string{"k"}, offs: []int{0}, sizes: []int{1}}
		if !j.appendRun(0, []*patch{pt}) {
			t.Fatal("appendRun rejected")
		}
		j.appendDel(pt.ref)
	}
	if j.Compactions() == 0 {
		t.Fatal("manifest never compacted under churn")
	}
	if got := j.ManifestRecords(); got > 2+manifestSlack {
		t.Fatalf("manifest holds %d records after churn, want <= %d", got, 2+manifestSlack)
	}
	runs := j.replayManifest()
	live := 0
	for _, rr := range runs {
		for _, pt := range rr.r {
			if pt.ref == keep.ref && rr.tier == 1 {
				live++
			}
		}
	}
	if live != 1 {
		t.Fatalf("replay after compaction found the live patch %d times, want 1", live)
	}
}

// TestManifestCompactionSkippedWhileHalted freezes the manifest at
// the crash instant: a halted journal must preserve exactly the
// records the crash left, not rewrite them.
func TestManifestCompactionSkippedWhileHalted(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 10; i++ {
		pt := &patch{ref: Ref(i), keys: []string{"k"}, offs: []int{0}, sizes: []int{1}}
		j.appendRun(0, []*patch{pt})
	}
	j.Halt()
	before := j.ManifestRecords()
	j.maybeCompact()
	if j.ManifestRecords() != before || j.Compactions() != 0 {
		t.Fatalf("halted journal compacted: %d -> %d records, %d compactions",
			before, j.ManifestRecords(), j.Compactions())
	}
}

// refReplayManifest is replayManifest as it was before it indexed runs
// and refs: each add scans the runs for its (tier, run ID) and each del
// scans every patch for its ref. Kept as the reference
// TestManifestLiveCountMatchesReplay holds the indexed replay to.
func (j *Journal) refReplayManifest() []*rebuiltRun {
	var runs []*rebuiltRun
	for i := range j.manifest {
		rec := &j.manifest[i]
		switch rec.op {
		case manifestAdd:
			var rr *rebuiltRun
			for _, cand := range runs {
				if cand.tier == rec.tier && cand.runID == rec.runID {
					rr = cand
					break
				}
			}
			if rr == nil {
				rr = &rebuiltRun{tier: rec.tier, runID: rec.runID}
				runs = append(runs, rr)
			}
			pt := &patch{ref: rec.ref, keys: rec.keys, offs: rec.offs, sizes: rec.sizes}
			pt.index()
			rr.r = append(rr.r, pt)
		case manifestDel:
		del:
			for _, rr := range runs {
				for k, pt := range rr.r {
					if pt.ref == rec.ref {
						rr.r = append(rr.r[:k], rr.r[k+1:]...)
						break del
					}
				}
			}
		}
	}
	return runs
}

// refMaybeCompact is maybeCompact as it was before the journal counted
// its live records as they are appended: it replays the whole manifest
// on every call to find out how many are live. Kept as the reference
// TestManifestLiveCountMatchesReplay holds the incremental count to.
func (j *Journal) refMaybeCompact() {
	if j == nil || j.halted {
		return
	}
	runs := j.replayManifest()
	live := 0
	for _, rr := range runs {
		live += len(rr.r)
	}
	if len(j.manifest) <= 2*live+manifestSlack {
		return
	}
	compacted := make([]manifestRecord, 0, live)
	for _, rr := range runs {
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

// TestManifestLiveCountMatchesReplay feeds seeded sequences of run
// appends, retirements, retirements of refs never added or already
// retired, and re-adds of retired refs to two journals — one compacting
// on the incremental live count, one on the replay-every-time reference
// — and requires the same manifest length and rewrite count after every
// record, and the same replayed tiers at the end, from replayManifest
// and from refReplayManifest alike.
func TestManifestLiveCountMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewJournal(), NewJournal()
		var added []Ref // every ref ever added: live, retired, or both in turn
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 4 || len(added) == 0: // a run of one to three patches, some of them re-adds
				var pts []*patch
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					ref := Ref(len(added) + 1)
					if len(added) > 0 && rng.Intn(4) == 0 {
						ref = added[rng.Intn(len(added))]
					}
					added = append(added, ref)
					pts = append(pts, &patch{ref: ref, keys: []string{"k"}, offs: []int{0}, sizes: []int{1}})
				}
				tier := rng.Intn(3)
				got.appendRun(tier, pts)
				want.appendRun(tier, pts)
			default:
				ref := added[rng.Intn(len(added))] // live, or retired before: then a no-op
				if op == 9 {
					ref = Ref(1 << 40) // never added
				}
				got.appendDel(ref)
				want.manifest = append(want.manifest, manifestRecord{op: manifestDel, ref: ref})
				want.refMaybeCompact()
			}
			if got.ManifestRecords() != want.ManifestRecords() || got.Compactions() != want.Compactions() {
				t.Fatalf("seed %d step %d: %d records after %d rewrites, reference %d after %d", seed, step,
					got.ManifestRecords(), got.Compactions(), want.ManifestRecords(), want.Compactions())
			}
		}
		if got.Compactions() == 0 {
			t.Fatalf("seed %d: the manifest was never rewritten", seed)
		}
		if a, b := replayShape(got.replayManifest()), replayShape(want.replayManifest()); a != b {
			t.Fatalf("seed %d: replayed tiers differ:\n got  %s\n want %s", seed, a, b)
		}
		for _, j := range []*Journal{got, want} {
			if a, b := replayShape(j.replayManifest()), replayShape(j.refReplayManifest()); a != b {
				t.Fatalf("seed %d: indexed and scanning replays differ:\n got  %s\n want %s", seed, a, b)
			}
		}
	}
}

// replayShape prints the runs a manifest replays to, in order.
func replayShape(runs []*rebuiltRun) string {
	var b strings.Builder
	for _, rr := range runs {
		fmt.Fprintf(&b, "t%d/r%d:", rr.tier, rr.runID)
		for _, pt := range rr.r {
			fmt.Fprintf(&b, "%d,", pt.ref)
		}
		b.WriteByte(' ')
	}
	return b.String()
}
