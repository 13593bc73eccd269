package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// newNode builds a replica on its own small SDF device. baseBER sets
// the raw bit error rate of that node's flash; the BCH codec corrects
// modest rates, while extreme rates make reads fail uncorrectably.
func newNode(t *testing.T, env *sim.Env, name string, baseBER float64) *Node {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.Nand.BaseBER = baseBER
	cfg.Channel.ECC = true
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := ccdb.NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
	slice := ccdb.NewSlice(env, store, ccdb.Config{
		PatchBytes:  store.BlockSize(),
		RunsPerTier: 8,
		DataMode:    true,
	})
	return NewNode(env, name, slice)
}

func TestReplicatedRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	g, err := NewGroup(env, DefaultConfig(),
		newNode(t, env, "rack1", 0),
		newNode(t, env, "rack2", 0),
		newNode(t, env, "rack3", 0))
	if err != nil {
		t.Fatal(err)
	}
	if g.Replicas() != 3 {
		t.Fatalf("Replicas = %d, want 3", g.Replicas())
	}
	val := bytes.Repeat([]byte{0xCD}, 40_000)
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "page-1", val, len(val)); err != nil {
			t.Error(err)
			return
		}
		got, size, err := g.Get(p, "page-1")
		if err != nil || size != len(val) || !bytes.Equal(got, val) {
			t.Errorf("Get = %d/%v", size, err)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.Puts != 1 || st.Gets != 1 || st.Failovers != 0 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEveryReplicaHoldsTheData(t *testing.T) {
	env := sim.NewEnv()
	nodes := []*Node{
		newNode(t, env, "a", 0), newNode(t, env, "b", 0), newNode(t, env, "c", 0),
	}
	g, err := NewGroup(env, DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", []byte("replicated"), 10); err != nil {
			t.Error(err)
			return
		}
		for _, n := range nodes {
			v, _, err := n.Slice.Get(p, "k")
			if err != nil || string(v) != "replicated" {
				t.Errorf("node %s: %q %v", n.Name, v, err)
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestFailoverOnUncorrectableECC(t *testing.T) {
	env := sim.NewEnv()
	// The primary's flash is hopeless (BER far beyond BCH t=8); the
	// other replicas are healthy.
	sick := newNode(t, env, "sick", 1e-2)
	g, err := NewGroup(env, DefaultConfig(),
		sick,
		newNode(t, env, "healthy1", 0),
		newNode(t, env, "healthy2", 0))
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{7}, 30_000)
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", val, len(val)); err != nil {
			t.Error(err)
			return
		}
		// Force the primary's copy to flash so its reads go to the
		// (corrupt) device rather than the memtable.
		if err := sick.Slice.Flush(p); err != nil {
			t.Error(err)
			return
		}
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("Get after primary corruption: %v", err)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if st.Lost != 0 {
		t.Fatalf("lost = %d, want 0", st.Lost)
	}
}

func TestReadRepairRestoresReplica(t *testing.T) {
	env := sim.NewEnv()
	sick := newNode(t, env, "sick", 1e-2)
	healthy := newNode(t, env, "healthy", 0)
	g, err := NewGroup(env, DefaultConfig(), sick, healthy)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{9}, 20_000)
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", val, len(val)); err != nil {
			t.Error(err)
			return
		}
		if err := sick.Slice.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := g.Get(p, "k"); err != nil {
			t.Error(err)
			return
		}
		p.Wait(2 * time.Second) // let the async repair land
		// The repaired copy sits in the sick node's memtable, so it is
		// readable again despite the bad flash.
		v, _, err := sick.Slice.Get(p, "k")
		if err != nil || !bytes.Equal(v, val) {
			t.Errorf("repaired replica: %v", err)
		}
	})
	env.RunUntilDone(w)
	if repairs := g.Stats().Repairs; repairs != 1 {
		t.Fatalf("repairs = %d, want 1", repairs)
	}
	env.Close()
}

func TestAllReplicasFailed(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(t, env, "a", 1e-2)
	b := newNode(t, env, "b", 1e-2)
	g, err := NewGroup(env, DefaultConfig(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", bytes.Repeat([]byte{1}, 10_000), 10_000); err != nil {
			t.Error(err)
			return
		}
		if err := a.Slice.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if err := b.Slice.Flush(p); err != nil {
			t.Error(err)
			return
		}
		_, _, err := g.Get(p, "k")
		if !errors.Is(err, ErrAllReplicasFailed) {
			t.Errorf("Get = %v, want ErrAllReplicasFailed", err)
		}
	})
	env.RunUntilDone(w)
	lost := g.Stats().Lost
	env.Close()
	if lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
}

func TestDivergentPutRepairedOnRead(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(t, env, "a", 0)
	b := newNode(t, env, "b", 0)
	c := newNode(t, env, "c", 0)
	g, err := NewGroup(env, DefaultConfig(), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{3}, 20_000)
	w := env.Go("t", func(p *sim.Proc) {
		// Choke c's NIC so its replica write misses the deadline: the
		// Put must surface the error while a and b keep the value.
		c.NIC().SetRateFactor(1e-9)
		err := g.Put(p, "k", val, len(val))
		if !errors.Is(err, ErrReplicaTimeout) {
			t.Errorf("Put with stalled replica: %v, want ErrReplicaTimeout", err)
			return
		}
		c.NIC().SetRateFactor(1)
		// The surviving replicas serve the key despite the failed Put.
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("Get of diverged key: %v", err)
			return
		}
		p.Wait(2 * time.Second) // let the async read-repair land
		v, _, err := c.Slice.Get(p, "k")
		if err != nil || !bytes.Equal(v, val) {
			t.Errorf("diverged replica not repaired: %v", err)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.DivergentPuts != 1 {
		t.Fatalf("divergentPuts = %d, want 1", st.DivergentPuts)
	}
	if st.Lost != 0 {
		t.Fatalf("lost = %d, want 0", st.Lost)
	}
}

func TestCrashRestartRereplicates(t *testing.T) {
	env := sim.NewEnv()
	a := newNode(t, env, "a", 0)
	b := newNode(t, env, "b", 0)
	c := newNode(t, env, "c", 0)
	g, err := NewGroup(env, DefaultConfig(), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{5}, 15_000)
	w := env.Go("t", func(p *sim.Proc) {
		if !g.CrashNode("c") {
			t.Error("CrashNode failed")
			return
		}
		// The put errors (first error is the down node) but the two
		// surviving replicas hold the value — a diverged write.
		if err := g.Put(p, "k", val, len(val)); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Put with crashed node: %v, want ErrNodeDown", err)
			return
		}
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("Get during crash: %v", err)
			return
		}
		if !g.RestartNode("c") {
			t.Error("RestartNode failed")
			return
		}
		p.Wait(2 * time.Second) // background re-replication
		v, _, err := c.Slice.Get(p, "k")
		if err != nil || !bytes.Equal(v, val) {
			t.Errorf("restarted node missing re-replicated key: %v", err)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.DivergentPuts != 1 {
		t.Fatalf("divergentPuts = %d, want 1", st.DivergentPuts)
	}
	if st.Rereplications != 1 {
		t.Fatalf("rereplications = %d, want 1", st.Rereplications)
	}
	if st.Lost != 0 {
		t.Fatalf("lost = %d, want 0", st.Lost)
	}
}

// slowPrimaryGroup builds a group whose primary serves k from flash
// and then hangs every channel for 500 ms, so its read of k stalls
// well past any hedge; the backup serves k from its memtable. It
// returns the group and a function that runs the timed Get.
func slowPrimaryGroup(t *testing.T, env *sim.Env, cfg Config) (*Group, func(p *sim.Proc) time.Duration) {
	t.Helper()
	cfgDev := core.DefaultConfig()
	cfgDev.Channels = 4
	cfgDev.Channel.Nand.BlocksPerPlane = 16
	cfgDev.Channel.Nand.PagesPerBlock = 16
	cfgDev.Channel.Nand.RetainData = true
	cfgDev.Channel.ECC = true
	cfgDev.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfgDev)
	if err != nil {
		t.Fatal(err)
	}
	store := ccdb.NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
	primary := NewNode(env, "primary", ccdb.NewSlice(env, store, ccdb.Config{
		PatchBytes:  store.BlockSize(),
		RunsPerTier: 8,
		DataMode:    true,
	}))
	backup := newNode(t, env, "backup", 0)
	g, err := NewGroup(env, cfg, primary, backup)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{8}, 20_000)
	get := func(p *sim.Proc) time.Duration {
		if err := g.Put(p, "k", val, len(val)); err != nil {
			t.Error(err)
			return 0
		}
		// Push the primary's copy to flash, then stall every channel
		// well past the hedge instant: the read must go to the backup
		// instead of waiting the stall out.
		if err := primary.Slice.Flush(p); err != nil {
			t.Error(err)
			return 0
		}
		for i := 0; i < dev.Channels(); i++ {
			dev.Channel(i).Hang(500 * time.Millisecond)
		}
		start := env.Now()
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("hedged Get: %v", err)
		}
		return env.Now() - start
	}
	return g, get
}

func TestHedgedReadMasksSlowPrimary(t *testing.T) {
	env := sim.NewEnv()
	g, get := slowPrimaryGroup(t, env, DefaultConfig())
	w := env.Go("t", func(p *sim.Proc) {
		if lat := get(p); lat >= 400*time.Millisecond {
			t.Errorf("hedged read took %v; hedge did not mask the stall", lat)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.Hedges == 0 {
		t.Fatal("no hedged read recorded")
	}
	if st.Failovers == 0 {
		t.Fatal("hedge winner not counted as failover")
	}
}

// TestReadDeadlineWithoutHedging pins ReadDeadline's fan-out when
// HedgeAfter is 0: once the deadline passes the group reads every
// remaining replica instead of waiting on the hung primary.
func TestReadDeadlineWithoutHedging(t *testing.T) {
	env := sim.NewEnv()
	g, get := slowPrimaryGroup(t, env, Config{ReadDeadline: 50 * time.Millisecond})
	w := env.Go("t", func(p *sim.Proc) {
		if lat := get(p); lat < 50*time.Millisecond || lat >= 60*time.Millisecond {
			t.Errorf("read with a 50ms deadline on a hung primary took %v, want just past the deadline", lat)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.Hedges != 1 || st.Failovers != 1 {
		t.Fatalf("hedges = %d, failovers = %d; want the deadline fan-out to serve the read from the backup",
			st.Hedges, st.Failovers)
	}
}

func TestNotFoundPropagates(t *testing.T) {
	env := sim.NewEnv()
	g, err := NewGroup(env, DefaultConfig(), newNode(t, env, "a", 0))
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if _, _, err := g.Get(p, "ghost"); !errors.Is(err, ccdb.ErrNotFound) {
			t.Errorf("Get = %v, want NotFound", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestGroupRequiresNodes(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	if _, err := NewGroup(env, DefaultConfig()); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestManyKeysSurviveOneSickReplica(t *testing.T) {
	env := sim.NewEnv()
	sick := newNode(t, env, "sick", 1e-2)
	g, err := NewGroup(env, DefaultConfig(),
		sick, newNode(t, env, "h1", 0), newNode(t, env, "h2", 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	want := make(map[string][]byte)
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("k%03d", i)
			val := make([]byte, 2000+rng.Intn(8000))
			rng.Read(val)
			if err := g.Put(p, key, val, len(val)); err != nil {
				t.Error(err)
				return
			}
			want[key] = val
		}
		if err := sick.Slice.Flush(p); err != nil {
			t.Error(err)
			return
		}
		for key, val := range want {
			got, _, err := g.Get(p, key)
			if err != nil || !bytes.Equal(got, val) {
				t.Errorf("key %s: %v", key, err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	lost := g.Stats().Lost
	env.Close()
	if lost != 0 {
		t.Fatalf("lost = %d, want 0", lost)
	}
}

// TestCatchingUpReplicaDeprioritized routes reads around a replica
// that is mid-remount: with the placement-order primary marked
// catching up, Get serves from a settled replica without counting a
// failover, and the deprioritized-read counter records the detour.
func TestCatchingUpReplicaDeprioritized(t *testing.T) {
	env := sim.NewEnv()
	nodes := []*Node{
		newNode(t, env, "a", 0), newNode(t, env, "b", 0), newNode(t, env, "c", 0),
	}
	g, err := NewGroup(env, DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0x5A}, 20_000)
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", val, len(val)); err != nil {
			t.Error(err)
			return
		}
		nodes[0].catchingUp = true
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("Get with catching-up primary: %v", err)
			return
		}
		nodes[0].catchingUp = false
		if _, _, err := g.Get(p, "k"); err != nil {
			t.Errorf("Get after catch-up settled: %v", err)
		}
	})
	env.RunUntilDone(w)
	st := g.Stats()
	env.Close()
	if st.DeprioritizedReads != 1 {
		t.Fatalf("deprioritized reads = %d, want 1 (only the read during catch-up)", st.DeprioritizedReads)
	}
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0: deprioritization is routing, not failure", st.Failovers)
	}
}

// TestCatchingUpReplicaStillServesAlone keeps availability ahead of
// freshness: when every settled replica is gone, a catching-up node
// must still serve the read rather than fail it.
func TestCatchingUpReplicaStillServesAlone(t *testing.T) {
	env := sim.NewEnv()
	nodes := []*Node{newNode(t, env, "a", 0), newNode(t, env, "b", 0)}
	g, err := NewGroup(env, DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{0xA5}, 10_000)
	w := env.Go("t", func(p *sim.Proc) {
		if err := g.Put(p, "k", val, len(val)); err != nil {
			t.Error(err)
			return
		}
		nodes[0].catchingUp = true
		nodes[1].alive = false
		got, _, err := g.Get(p, "k")
		if err != nil || !bytes.Equal(got, val) {
			t.Errorf("Get from lone catching-up replica: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}
