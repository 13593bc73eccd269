package flashchan

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/sim"
)

// cpConfig is smallConfig with checkpointing on.
func cpConfig(every int) Config {
	cfg := smallConfig()
	cfg.CheckpointEvery = every
	return cfg
}

// TestCheckpointRoundtrip writes enough tagged blocks to trigger an
// automatic checkpoint, remounts, and requires the scan to mount from
// the checkpoint: the vouched blocks validate with a single probe
// each (far fewer probed pages than the full out-of-band walk), and
// every payload reads back byte-for-byte.
func TestCheckpointRoundtrip(t *testing.T) {
	cfg := cpConfig(4)
	env := sim.NewEnv()
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	vals := make(map[int][]byte)
	const blocks = 6
	w := env.Go("w", func(p *sim.Proc) {
		for lbn := 0; lbn < blocks; lbn++ {
			data := make([]byte, ch.BlockSize())
			rng.Read(data)
			vals[lbn] = data
			if err := ch.EraseWriteTagged(p, lbn, data, WriteID{Lo: uint64(100 + lbn)}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	if written, failures, _ := ch.CheckpointStats(); written < 1 || failures != 0 {
		t.Fatalf("CheckpointStats = %d written, %d failures; want >= 1 and 0", written, failures)
	}
	env.Close()

	env2, ch2, rep := remount(t, ch, cfg)
	defer env2.Close()
	if !rep.CheckpointFound {
		t.Fatal("remount found no checkpoint")
	}
	if rep.CheckpointHits == 0 {
		t.Fatal("checkpoint vouched for no blocks")
	}
	if len(rep.Recovered) != blocks {
		t.Fatalf("recovered %d blocks, want %d", len(rep.Recovered), blocks)
	}

	// The same media scanned without checkpoint awareness must pay a
	// full walk: the bound the checkpoint exists to beat.
	plain := cfg
	plain.CheckpointEvery = 0
	_, _, full := remount(t, ch, plain)
	if rep.ProbedPages >= full.ProbedPages {
		t.Fatalf("checkpointed scan probed %d pages, full walk %d; want fewer", rep.ProbedPages, full.ProbedPages)
	}

	r := env2.Go("r", func(p *sim.Proc) {
		for lbn, want := range vals {
			got, err := ch2.ReadAt(p, lbn, 0, ch2.BlockSize())
			if err != nil {
				t.Errorf("read lbn %d after checkpointed recovery: %v", lbn, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("lbn %d read wrong bytes after checkpointed recovery", lbn)
			}
		}
	})
	env2.RunUntilDone(r)
}

// TestCheckpointTornWriteFallsBack cuts power inside a checkpoint
// write: the slot being rewritten holds the older image by
// construction, so the remount must fall back to the intact previous
// checkpoint — same generation as before the torn write — and every
// block must still read back byte-for-byte.
func TestCheckpointTornWriteFallsBack(t *testing.T) {
	cfg := cpConfig(2)
	env := sim.NewEnv()
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	vals := make(map[int][]byte)
	w := env.Go("w", func(p *sim.Proc) {
		for lbn := 0; lbn < 2; lbn++ {
			data := make([]byte, ch.BlockSize())
			rng.Read(data)
			vals[lbn] = data
			if err := ch.EraseWriteTagged(p, lbn, data, WriteID{Lo: uint64(200 + lbn)}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	written, _, _ := ch.CheckpointStats()
	if written != 1 {
		t.Fatalf("staging wrote %d checkpoints, want exactly 1", written)
	}

	// A second checkpoint, torn mid-erase: the slot erase takes 3 ms,
	// so a cut at 1 ms lands inside it.
	// The scheduled power cut tears this checkpoint on purpose; the
	// remount below must fall back to the previous image.
	env.Go("cp", func(p *sim.Proc) {
		ch.Checkpoint(p)
	})
	env.Schedule(time.Millisecond, ch.PowerOff)
	env.Run()
	env.Close()

	env2, ch2, rep := remount(t, ch, cfg)
	defer env2.Close()
	if !rep.CheckpointFound {
		t.Fatal("remount found no checkpoint after torn rewrite")
	}
	if rep.CheckpointSeq != 1 {
		t.Fatalf("remount loaded checkpoint seq %d, want the pre-tear image (1)", rep.CheckpointSeq)
	}
	r := env2.Go("r", func(p *sim.Proc) {
		for lbn, want := range vals {
			got, err := ch2.ReadAt(p, lbn, 0, ch2.BlockSize())
			if err != nil {
				t.Errorf("read lbn %d after torn-checkpoint recovery: %v", lbn, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("lbn %d read wrong bytes after torn-checkpoint recovery", lbn)
			}
		}
	})
	env2.RunUntilDone(r)
}

// TestCheckpointRequiresSpares rejects a configuration whose spare
// pool cannot host the two checkpoint home blocks.
func TestCheckpointRequiresSpares(t *testing.T) {
	cfg := cpConfig(4)
	cfg.SparePerPlane = 2
	env := sim.NewEnv()
	defer env.Close()
	if _, err := New(env, cfg); err == nil {
		t.Fatal("New accepted CheckpointEvery > 0 with SparePerPlane == 2")
	}
}

// TestSparesMustLeaveLogicalBlocks rejects a spare pool as large as the
// plane: LogicalBlocks would be zero or negative and every command
// would fail its address check ("logical block 0 of -8").
func TestSparesMustLeaveLogicalBlocks(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cfg := DefaultConfig()
	cfg.Nand.BlocksPerPlane = 8 // below the default spare pool of 16
	if _, err := New(env, cfg); err == nil {
		t.Fatal("New accepted SparePerPlane 16 with 8 blocks per plane")
	}
	cfg.SparePerPlane = 8
	if _, err := New(env, cfg); err == nil {
		t.Fatal("New accepted SparePerPlane == BlocksPerPlane")
	}
	cfg.SparePerPlane = 7
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.LogicalBlocks() != 1 {
		t.Fatalf("logical blocks = %d, want 1", ch.LogicalBlocks())
	}
	// Mount runs the same check over media that New accepted.
	for _, spares := range []int{-1, 8, 16} {
		cfg.SparePerPlane = spares
		if _, err := Mount(env, cfg, ch.Persistent()); err == nil {
			t.Fatalf("Mount accepted SparePerPlane %d with 8 blocks per plane", spares)
		}
	}
	cfg.SparePerPlane = 7
	if _, err := Mount(env, cfg, ch.Persistent()); err != nil {
		t.Fatal(err)
	}
}
