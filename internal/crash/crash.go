// Package crash is the acknowledged-durability oracle: it runs a
// single-device CCDB workload, cuts power at an arbitrary virtual
// instant (including mid-program and mid-erase, tearing blocks in the
// media model), remounts the surviving media through the full
// recovery path — channel OOB scans, block-map rebuild, journal
// replay — and verifies the crash-consistency contract: every write
// acknowledged before the crash instant is readable byte-for-byte
// after remount, and writes that were never acknowledged must be
// absent — corrupt data must never surface.
//
// Everything is seeded and runs in virtual time, so a given (seed,
// crash instant) pair reproduces the same torn pages, the same
// recovery scan, and the same post-recovery trace hash on every run.
package crash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Config sizes the workload. The geometry is deliberately small so a
// property test can afford hundreds of crash instants: a few channels
// of short blocks keep each run cheap while still exercising flushes,
// compactions, background erases, and stale generations.
type Config struct {
	Seed           int64
	Channels       int
	BlocksPerPlane int
	PagesPerBlock  int
	// Keys is the size of the cyclically overwritten key space;
	// ValueBytes is the value size (one page by default).
	Keys       int
	ValueBytes int
	// WriteEvery paces the writer; Horizon ends the pre-crash run.
	WriteEvery time.Duration
	Horizon    time.Duration
}

// DefaultConfig returns the oracle's standard small-geometry rig.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Channels:       4,
		BlocksPerPlane: 16,
		PagesPerBlock:  4,
		Keys:           48,
		ValueBytes:     8 << 10,
		WriteEvery:     150 * time.Microsecond,
		Horizon:        120 * time.Millisecond,
	}
}

// devConfig builds the device: data-retaining NAND with error
// injection off (the oracle checks payload bytes, not the ECC path)
// and the OOB payload-CRC check on — the "never surface corrupt
// data" tripwire.
func (c Config) devConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Channels = c.Channels
	cfg.Channel.Nand.BlocksPerPlane = c.BlocksPerPlane
	cfg.Channel.Nand.PagesPerBlock = c.PagesPerBlock
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.Nand.BaseBER = 0
	cfg.Channel.Nand.WearBER = 0
	// Checkpointing is on (with spares for the two checkpoint home
	// blocks), so every crash instant also exercises checkpoint-aware
	// recovery, and instants aimed inside "chan/checkpoint" windows cut
	// power mid-checkpoint-write — the remount must then fall back to
	// the previous image (or a full scan) without losing an acked byte.
	cfg.Channel.SparePerPlane = 4
	cfg.Channel.CheckpointEvery = 2
	cfg.Channel.VerifyCRC = true
	return cfg
}

// newReplica builds the oracle's journaled replica on env over a
// block layer configured by layerCfg.
func (c Config) newReplica(env *sim.Env, layerCfg blocklayer.Config) (*ccdb.SDFReplica, error) {
	return ccdb.NewSDFReplica(env, c.devConfig(), layerCfg, ccdb.Config{RunsPerTier: 4, DataMode: true})
}

// rig is one running pre-crash workload.
type rig struct {
	env     *sim.Env
	replica *ccdb.SDFReplica
	writer  *sim.Proc
	// acked maps each key to the last value whose Put returned nil;
	// attempted also includes keys every Put tried and lost.
	acked     map[string][]byte
	attempted map[string]bool
}

// start builds the device stack and spawns the paced writer. The
// writer keeps issuing Puts for the whole horizon; Puts rejected
// after a power cut fail fast and count as attempted-but-unacked.
func (c Config) start(col *trace.Collector) (*rig, error) {
	env := sim.NewEnv()
	if col != nil {
		env.SetTracer(col)
	}
	replica, err := c.newReplica(env, blocklayer.DefaultConfig())
	if err != nil {
		env.Close()
		return nil, err
	}
	slice := replica.Slice
	r := &rig{
		env:       env,
		replica:   replica,
		acked:     make(map[string][]byte),
		attempted: make(map[string]bool),
	}
	rng := rand.New(rand.NewSource(c.Seed))
	r.writer = env.Go("crash/writer", func(p *sim.Proc) {
		for i := 0; env.Now() < c.Horizon; i++ {
			key := fmt.Sprintf("k%03d", i%c.Keys)
			val := make([]byte, c.ValueBytes)
			rng.Read(val)
			r.attempted[key] = true
			if err := slice.Put(p, key, val, len(val)); err == nil {
				r.acked[key] = val
			}
			p.Wait(c.WriteEvery)
		}
	})
	return r, nil
}

// Outcome reports one crash-and-remount cycle. Every field is
// deterministic in (Config, CrashAt): the determinism test compares
// whole Outcomes, trace hash included, across independent runs.
type Outcome struct {
	CrashAt time.Duration
	// Attempted and Acked count distinct keys; Verified counts acked
	// keys proven byte-identical after remount.
	Attempted int
	Acked     int
	Verified  int
	// Mount and Replay are the recovery-path reports.
	Mount  blocklayer.MountStats
	Replay ccdb.ReplayReport
	// RecoveryTime is the virtual time the remount consumed.
	RecoveryTime time.Duration
	// TraceHash fingerprints the post-recovery trace stream.
	TraceHash string
}

// CrashAndRecover runs the workload, cuts power at crashAt, remounts
// the surviving media in a fresh environment, and verifies the
// durability contract. A contract violation (or any recovery failure)
// is the returned error.
func CrashAndRecover(cfg Config, crashAt time.Duration) (Outcome, error) {
	out := Outcome{CrashAt: crashAt}
	if crashAt <= 0 || crashAt >= cfg.Horizon {
		return out, fmt.Errorf("crash: instant %v outside (0, %v)", crashAt, cfg.Horizon)
	}
	r, err := cfg.start(nil)
	if err != nil {
		return out, err
	}
	// The cut is one scheduler callback: the device freezes (tearing
	// whatever pulses are in flight) and the journal stops accepting
	// appends, so no write racing the cut can be acknowledged.
	r.env.Schedule(crashAt, r.replica.PowerLoss)
	r.env.RunUntilDone(r.writer)
	r.env.Run()
	r.env.Close()
	out.Attempted = len(r.attempted)
	out.Acked = len(r.acked)

	// Remount in a fresh environment: same config, surviving media.
	env := sim.NewEnv()
	defer env.Close()
	col := trace.NewCollector()
	env.SetTracer(col)
	var mountErr error
	boot := env.Go("crash/mount", func(p *sim.Proc) {
		out.Mount, out.Replay, mountErr = r.replica.Remount(p, env)
	})
	env.RunUntilDone(boot)
	if mountErr != nil {
		return out, fmt.Errorf("crash: remount at %v: %w", crashAt, mountErr)
	}
	out.RecoveryTime = env.Now()
	slice := r.replica.Slice

	// The oracle proper. With the write-ahead journal, acknowledged
	// and visible coincide exactly: an acked key must come back
	// byte-for-byte, a never-acked key must be absent (its append was
	// rejected, so no durable state can hold it), and keys never
	// written must stay absent.
	keys := make([]string, 0, len(r.attempted))
	for k := range r.attempted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var verr error
	verify := env.Go("crash/verify", func(p *sim.Proc) {
		for _, k := range keys {
			got, _, err := slice.Get(p, k)
			want, ok := r.acked[k]
			switch {
			case ok && err != nil:
				verr = fmt.Errorf("crash at %v: acked key %q unreadable after remount: %w", crashAt, k, err)
			case ok && !bytes.Equal(got, want):
				verr = fmt.Errorf("crash at %v: acked key %q returned wrong bytes after remount", crashAt, k)
			case !ok && err == nil:
				verr = fmt.Errorf("crash at %v: unacked key %q surfaced after remount", crashAt, k)
			case !ok && !errors.Is(err, ccdb.ErrNotFound):
				verr = fmt.Errorf("crash at %v: unacked key %q: want not-found, got: %v", crashAt, k, err)
			}
			if verr != nil {
				return
			}
			if ok {
				out.Verified++
			}
		}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("absent%02d", i)
			if _, _, err := slice.Get(p, k); !errors.Is(err, ccdb.ErrNotFound) {
				verr = fmt.Errorf("crash at %v: phantom key %q after remount: %v", crashAt, k, err)
				return
			}
		}
	})
	env.RunUntilDone(verify)
	env.Run()
	if verr != nil {
		return out, verr
	}
	out.TraceHash = col.Hash()
	return out, nil
}

// Window is one interval during which a NAND pulse was in flight in
// the crash-free profile of the workload. Because the simulation is
// deterministic, the crashing run is identical to the profile up to
// the crash instant — so an instant inside a profile window lands the
// cut on an in-flight program or erase.
type Window struct {
	Start, End time.Duration
}

// Instant returns a point late in the window, biased toward the pulse
// itself (the tail of the span) rather than any queueing at its head.
func (w Window) Instant() time.Duration {
	return w.Start + 3*(w.End-w.Start)/4
}

// Windows profiles the workload without a crash and returns the
// program and erase pulse windows plus the FTL checkpoint-write
// windows, in completion order.
func Windows(cfg Config) (prog, erase, ckpt []Window, err error) {
	col := trace.NewCollector()
	r, err := cfg.start(col)
	if err != nil {
		return nil, nil, nil, err
	}
	defer r.env.Close()
	r.env.RunUntilDone(r.writer)
	r.env.Run()
	begins := make(map[trace.SpanID]trace.Event)
	for _, ev := range col.Events() {
		switch ev.Kind {
		case trace.KindSpanBegin:
			begins[ev.Span] = ev
		case trace.KindSpanEnd:
			b, ok := begins[ev.Span]
			if !ok {
				continue
			}
			delete(begins, ev.Span)
			w := Window{Start: b.At, End: ev.At}
			switch b.Name {
			case "nand/program":
				prog = append(prog, w)
			case "nand/erase":
				erase = append(erase, w)
			case "chan/checkpoint":
				ckpt = append(ckpt, w)
			}
		}
	}
	return prog, erase, ckpt, nil
}
