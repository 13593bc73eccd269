package experiments

import (
	"bytes"
	"fmt"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/flashchan"
	"sdf/internal/sim"
)

// recoveryFills are the pre-crash fill levels (percent of logical
// blocks holding recoverable data) the recovery experiment sweeps.
var recoveryFills = []int{10, 25, 50, 75, 90}

// recoveryRun is one crash-and-remount cycle at a given fill level.
type recoveryRun struct {
	fill     int
	seeded   int
	stats    blocklayer.MountStats
	scanTime time.Duration
}

// recoveryDevConfig is the swept device: the full card, or eight
// channels of 128 blocks a plane in quick mode.
func recoveryDevConfig(opts Options) core.Config {
	cfg := core.DefaultConfig()
	if opts.Quick {
		cfg.Channels = 8
		cfg.Channel.Nand.BlocksPerPlane = 128
	}
	return cfg
}

// seedRecoverable stages logical blocks [lo, hi) on every channel with
// SeedRecoverable — real out-of-band metadata in zero simulated time —
// and returns how many blocks it seeded.
func seedRecoverable(dev *core.Device, lo, hi int) int {
	seeded := 0
	for c := 0; c < dev.Channels(); c++ {
		for lbn := lo; lbn < hi; lbn++ {
			id := flashchan.WriteID{Lo: uint64(lbn*dev.Channels() + c)}
			if err := dev.Channel(c).SeedRecoverable(lbn, id); err != nil {
				panic(err)
			}
			seeded++
		}
	}
	return seeded
}

// startTornWriters spawns real writes of logical block lbn on the
// first four channels, so the scheduled power cut lands mid-block and
// every fill level also recovers past genuine torn blocks.
func startTornWriters(env *sim.Env, dev *core.Device, lbn int) {
	for c := 0; c < 4 && c < dev.Channels(); c++ {
		env.Go("recovery/torn-writer", func(p *sim.Proc) {
			id := flashchan.WriteID{Lo: uint64(lbn*dev.Channels() + c)}
			//sdflint:allow errdrop the scheduled power cut tears this write on purpose; the mount-time scan in measureRemount is what the experiment measures
			dev.EraseWriteTagged(p, c, lbn, nil, id)
		})
	}
}

// armPowerCut attaches dev to a fresh injector and arms pl against it.
func armPowerCut(env *sim.Env, dev *core.Device, pl *fault.Plan) {
	inj := fault.NewInjector(env)
	fault.AttachDevice(inj, "sdf0", dev)
	if err := inj.Arm(pl); err != nil {
		panic(err)
	}
}

// measureRemount runs the staged, power-cut device to quiescence,
// closes its environment, remounts the surviving media in a fresh one
// traced as traceDev, and returns the mount stats and the scan's
// latency: the scan starts at t=0, so the clock after the mount proc
// drains is the recovery latency.
func measureRemount(opts Options, env *sim.Env, dev *core.Device, cfg core.Config, traceDev string) (blocklayer.MountStats, time.Duration) {
	env.Run()
	state := dev.State()
	env.Close()

	renv := opts.newEnv()
	defer renv.Close()
	if opts.Tracer != nil {
		opts.Tracer.SetDev(traceDev)
		renv.SetTracer(opts.Tracer)
	}
	mounted, err := core.Mount(renv, cfg, state)
	if err != nil {
		panic(err)
	}
	var mst blocklayer.MountStats
	boot := renv.Go("recovery/mount", func(p *sim.Proc) {
		if _, mst, err = blocklayer.Mount(p, renv, mounted, blocklayer.DefaultConfig()); err != nil {
			panic(err)
		}
	})
	renv.RunUntilDone(boot)
	return mst, renv.Now()
}

// recoveryCycle stages a device at the fill level, tears a few writes
// with a mid-flight power cut, and measures the remount scan. The
// fill is staged with SeedRecoverable, so the sweep pays only for
// what it measures: the recovery scan itself.
func recoveryCycle(opts Options, fill int) recoveryRun {
	env := opts.newEnv()
	cfg := recoveryDevConfig(opts)
	dev, err := core.New(env, cfg)
	if err != nil {
		panic(err)
	}
	perChan := dev.BlocksPerChannel() * fill / 100
	run := recoveryRun{fill: fill, seeded: seedRecoverable(dev, 0, perChan)}
	armPowerCut(env, dev, &fault.Plan{Seed: int64(fill), Injections: []fault.Injection{
		{At: 8 * time.Millisecond, Kind: fault.Powerloss, Target: "sdf0"},
	}})
	startTornWriters(env, dev, perChan)
	run.stats, run.scanTime = measureRemount(opts, env, dev, cfg, fmt.Sprintf("recovery/f%02d", fill))
	return run
}

// recoveryCycleCheckpointed stages the same fill with FTL
// checkpointing enabled: the staged device writes a checkpoint, a
// fixed post-checkpoint delta lands (independent of fill), and a
// scheduled recurring powerloss plan cuts power mid-write. The
// remount recovers from the checkpoint: the post-checkpoint activity
// is walked in full, a fixed cost, and every checkpoint-vouched block
// costs one frontier and one first-page probe per plane instead of a
// walk of every page, so the probe count still grows with fill but at
// 2/(1+PagesPerBlock) of the full scan's rate.
func recoveryCycleCheckpointed(opts Options, fill int) recoveryRun {
	env := opts.newEnv()
	cfg := recoveryDevConfig(opts)
	cfg.Channel.CheckpointEvery = 64
	dev, err := core.New(env, cfg)
	if err != nil {
		panic(err)
	}
	perChan := dev.BlocksPerChannel() * fill / 100
	run := recoveryRun{fill: fill, seeded: seedRecoverable(dev, 0, perChan)}
	// Checkpoint the staged state to completion before arming the
	// chaos plan: the sweep measures recovery from a durable image
	// (mid-checkpoint cuts are the crash oracle's job).
	ckpt := env.Go("recovery/checkpoint", func(p *sim.Proc) {
		if err := dev.Checkpoint(p); err != nil {
			panic(err)
		}
	})
	env.RunUntilDone(ckpt)
	// A fixed post-checkpoint delta — the same two blocks per channel
	// at every fill level — is all the remount should have to walk in
	// full.
	run.seeded += seedRecoverable(dev, perChan, perChan+2)
	// The scheduled plan fires twice (the second cut lands on dead
	// media, a no-op) so the recurring expansion path itself is under
	// make verify's byte-identity check.
	armPowerCut(env, dev, &fault.Plan{Seed: int64(fill), Injections: []fault.Injection{
		{At: 8 * time.Millisecond, Kind: fault.Powerloss, Target: "sdf0",
			Every: 4 * time.Millisecond, Repeat: 2},
	}})
	startTornWriters(env, dev, perChan+2)
	run.stats, run.scanTime = measureRemount(opts, env, dev, cfg, fmt.Sprintf("recovery/cp-f%02d", fill))
	return run
}

// journalRun is the write-ahead-log half of the recovery bound.
type journalRun struct {
	putsAcked     int
	bytesAtCrash  int64
	replayed      int
	truncatedPuts int64
}

// recoveryJournal measures the CCDB side of bounded recovery: a
// journaled slice takes a stream of puts, flushes mid-stream (which
// truncates the log at the flush watermark), keeps writing, and then
// crashes. The remount replays only the post-truncation tail — the
// journal bytes at the crash instant, not the whole put history —
// which is the journal analogue of the FTL checkpoint bound.
func recoveryJournal(opts Options) journalRun {
	env := opts.newEnv()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	r, err := ccdb.NewSDFReplica(env, cfg, blocklayer.DefaultConfig(), ccdb.Config{RunsPerTier: 8, DataMode: true})
	if err != nil {
		panic(err)
	}
	slice := r.Slice
	run := journalRun{}
	const total = 48
	env.Go("recovery/journal-writer", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			val := bytes.Repeat([]byte{byte(i)}, 4<<10)
			if err := slice.Put(p, fmt.Sprintf("jk%03d", i), val, len(val)); err != nil {
				return
			}
			run.putsAcked++
			// Flush mid-stream: the durable patch lets the journal drop
			// everything up to the flush watermark.
			if i == total/2 {
				if err := slice.Flush(p); err != nil {
					return
				}
			}
			p.Wait(100 * time.Microsecond)
		}
	})
	env.Schedule(100*time.Millisecond, r.PowerLoss)
	env.Run()
	run.bytesAtCrash = r.Journal.Bytes()
	run.truncatedPuts = r.Journal.TruncatedPuts()
	env.Close()

	renv := opts.newEnv()
	defer renv.Close()
	boot := renv.Go("recovery/journal-mount", func(p *sim.Proc) {
		_, rep, err := r.Remount(p, renv)
		if err != nil {
			panic(err)
		}
		run.replayed = rep.MemReplayed
	})
	renv.RunUntilDone(boot)
	return run
}

// Recovery measures mount-time recovery latency against device fill
// level, on two axes. Without checkpoints the remount's out-of-band
// scan probes every written page's metadata, so recovery cost grows
// with fill; with FTL checkpoints the scan single-probe-validates
// every checkpoint-vouched block and full-walks only post-checkpoint
// activity: a fixed walk plus 8 probes per mapped block at the default
// geometry, against 1028 for the full scan (DESIGN.md §14; checkRecovery
// holds that rate).
func Recovery(opts Options) Table {
	tab := Table{
		ID:    "recovery",
		Title: "mount-time recovery scan vs device fill level",
		Header: []string{"fill", "seeded blocks", "recovered", "torn", "probed pages",
			"recovery time", "cp probed", "cp time", "cp hits"},
	}
	for _, fill := range recoveryFills {
		r := recoveryCycle(opts, fill)
		cp := recoveryCycleCheckpointed(opts, fill)
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d%%", r.fill),
			fmt.Sprintf("%d", r.seeded),
			fmt.Sprintf("%d", r.stats.RecoveredBlocks),
			fmt.Sprintf("%d", r.stats.TornDiscarded),
			fmt.Sprintf("%d", r.stats.ProbedPages),
			fmt.Sprintf("%.2f ms", float64(r.scanTime)/float64(time.Millisecond)),
			fmt.Sprintf("%d", cp.stats.ProbedPages),
			fmt.Sprintf("%.2f ms", float64(cp.scanTime)/float64(time.Millisecond)),
			fmt.Sprintf("%d", cp.stats.CheckpointHits),
		})
		tab.metric(fmt.Sprintf("recovery_ms_f%02d", r.fill), float64(r.scanTime)/float64(time.Millisecond))
		tab.metric(fmt.Sprintf("recovery_probed_pages_f%02d", r.fill), float64(r.stats.ProbedPages))
		tab.metric(fmt.Sprintf("recovery_cp_ms_f%02d", cp.fill), float64(cp.scanTime)/float64(time.Millisecond))
		tab.metric(fmt.Sprintf("recovery_cp_probed_pages_f%02d", cp.fill), float64(cp.stats.ProbedPages))
		tab.metric(fmt.Sprintf("recovery_cp_hits_f%02d", cp.fill), float64(cp.stats.CheckpointHits))
	}
	jr := recoveryJournal(opts)
	tab.metric("recovery_journal_puts_acked", float64(jr.putsAcked))
	tab.metric("recovery_journal_bytes_at_crash", float64(jr.bytesAtCrash))
	tab.metric("recovery_journal_replayed", float64(jr.replayed))
	tab.metric("recovery_journal_truncated_puts", float64(jr.truncatedPuts))
	tab.Notes = append(tab.Notes,
		"each fill level crashes mid-write; torn counts prove the scan rode over real crash damage",
		"scan latency is virtual time from power-on to a serving block layer",
		"cp columns remount from an FTL checkpoint: a fixed post-checkpoint walk plus 8 probes per mapped block (full scan: 1028)",
		fmt.Sprintf("journal: %d puts acked, %d truncated at the mid-stream flush, %d replayed at remount (%d B of log at the crash)",
			jr.putsAcked, jr.truncatedPuts, jr.replayed, jr.bytesAtCrash))
	return tab
}
