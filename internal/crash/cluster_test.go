package crash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/cluster"
	"sdf/internal/coord"
	"sdf/internal/fault"
	"sdf/internal/sim"
)

// TestClusterPowerLossRemount drives the node-level recovery path: a
// powerloss injection with a duration cuts one replica's power
// mid-run, the group keeps serving from its peers, and the scheduled
// restart brings the node back through device recovery and journal
// replay — not an empty slice. The finale crashes the two healthy
// peers and reads everything from the remounted node alone.
func TestClusterPowerLossRemount(t *testing.T) {
	cfg := DefaultConfig(3)
	env := sim.NewEnv()
	defer env.Close()
	inj := fault.NewInjector(env)

	names := []string{"n1", "n2", "n3"}
	var nodes []*cluster.Node
	for _, name := range names {
		r, err := cfg.newReplica(env, blocklayer.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, cluster.NewSDFNode(env, name, r))
	}
	group, err := cluster.NewGroup(env, cluster.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	fault.AttachGroup(inj, group)

	rng := rand.New(rand.NewSource(cfg.Seed))
	want := make(map[string][]byte)
	preload := env.Go("preload", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("k%03d", i)
			val := make([]byte, cfg.ValueBytes)
			rng.Read(val)
			if err := group.Put(p, key, val, len(val)); err != nil {
				t.Errorf("preload %s: %v", key, err)
				return
			}
			want[key] = val
		}
	})
	env.RunUntilDone(preload)

	pl := &fault.Plan{Seed: cfg.Seed, Injections: []fault.Injection{
		{At: 10 * time.Millisecond, Kind: fault.Powerloss, Target: "n2", Duration: 20 * time.Millisecond},
	}}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(pl); err != nil {
		t.Fatal(err)
	}

	// Writes spanning the outage: puts while n2 is down return an
	// error (the caller is told the group diverged) but land on the
	// healthy replicas and mark n2 dirty for re-replication.
	writer := env.Go("writer", func(p *sim.Proc) {
		for i := 0; env.Now() < 60*time.Millisecond; i++ {
			key := fmt.Sprintf("w%03d", i)
			val := make([]byte, cfg.ValueBytes)
			rng.Read(val)
			group.Put(p, key, val, len(val))
			want[key] = val
			p.Wait(2 * time.Millisecond)
		}
	})
	env.RunUntilDone(writer)
	env.Run() // drain the restart, remount, and re-replication

	st := group.Stats()
	if st.Remounts != 1 || st.FailedRemounts != 0 {
		t.Fatalf("remounts = %d, failed = %d, want 1 and 0", st.Remounts, st.FailedRemounts)
	}
	if !nodes[1].Alive() {
		t.Fatal("n2 did not come back")
	}

	// Only the remounted node survives; every key must be served from
	// its recovered state, byte for byte.
	group.CrashNode("n1")
	group.CrashNode("n3")
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reader := env.Go("reader", func(p *sim.Proc) {
		for _, key := range keys {
			got, _, err := group.Get(p, key)
			if err != nil {
				t.Errorf("read %s from remounted node: %v", key, err)
				return
			}
			if !bytes.Equal(got, want[key]) {
				t.Errorf("read %s from remounted node: wrong bytes", key)
				return
			}
		}
	})
	env.RunUntilDone(reader)
}

// TestClusterPowerLossRemountCoordinated reruns the acknowledged-
// durability oracle with the whole co-scheduling stack live: erase
// windows behind a per-slice coordinator, SLO write admission control
// in front of every Put, and static wear leveling migrating cold
// blocks in the background. None of these may cost a byte: every
// write the cluster acknowledged before the finale must be served,
// byte for byte, from the replica that recovered through power loss.
func TestClusterPowerLossRemountCoordinated(t *testing.T) {
	cfg := DefaultConfig(3)
	env := sim.NewEnv()
	defer env.Close()
	inj := fault.NewInjector(env)
	co := coord.New(env, coord.Config{
		Window:          2 * time.Millisecond,
		MaxWait:         20 * time.Millisecond,
		ForceFreeBlocks: 1,
	})

	names := []string{"n1", "n2", "n3"}
	var nodes []*cluster.Node
	for _, name := range names {
		member := co.Register(name)
		// The remounted layer rejoins the same erase-window membership
		// and keeps wear leveling on: the replica remounts with the
		// block-layer config it was built with.
		blCfg := blocklayer.DefaultConfig()
		blCfg.EraseGate = member
		blCfg.StaticWL = true
		blCfg.WearSpreadThreshold = 4
		r, err := cfg.newReplica(env, blCfg)
		if err != nil {
			t.Fatal(err)
		}
		node := cluster.NewSDFNode(env, name, r)
		node.SetWindow(member)
		nodes = append(nodes, node)
	}
	ccfg := cluster.DefaultConfig()
	// A rate well above the offered load: the oracle checks that the
	// admission path (token accounting, best-effort degradation while
	// a replica is down) is durability-neutral, not that it throttles.
	ccfg.Admission = coord.NewAdmission(env, coord.DefaultAdmissionConfig(2000), func() float64 { return 0 })
	group, err := cluster.NewGroup(env, ccfg, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	fault.AttachGroup(inj, group)

	rng := rand.New(rand.NewSource(cfg.Seed))
	want := make(map[string][]byte)
	preload := env.Go("preload", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("k%03d", i)
			val := make([]byte, cfg.ValueBytes)
			rng.Read(val)
			if err := group.Put(p, key, val, len(val)); err != nil {
				t.Errorf("preload %s: %v", key, err)
				return
			}
			want[key] = val
		}
	})
	env.RunUntilDone(preload)

	pl := &fault.Plan{Seed: cfg.Seed, Injections: []fault.Injection{
		{At: 10 * time.Millisecond, Kind: fault.Powerloss, Target: "n2", Duration: 20 * time.Millisecond},
	}}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(pl); err != nil {
		t.Fatal(err)
	}

	// Writes spanning the outage. Only acknowledged writes join the
	// oracle: with admission control in the path a Put can now also be
	// shed, and a shed write is not durable anywhere by design.
	writer := env.Go("writer", func(p *sim.Proc) {
		for i := 0; env.Now() < 60*time.Millisecond; i++ {
			key := fmt.Sprintf("w%03d", i)
			val := make([]byte, cfg.ValueBytes)
			rng.Read(val)
			if err := group.Put(p, key, val, len(val)); err == nil || !errors.Is(err, cluster.ErrWriteShed) {
				want[key] = val
			}
			p.Wait(2 * time.Millisecond)
		}
	})
	env.RunUntilDone(writer)
	env.Run() // drain the restart, remount, and re-replication

	st := group.Stats()
	if st.Remounts != 1 || st.FailedRemounts != 0 {
		t.Fatalf("remounts = %d, failed = %d, want 1 and 0", st.Remounts, st.FailedRemounts)
	}
	if !nodes[1].Alive() {
		t.Fatal("n2 did not come back")
	}
	if cs := co.Stats(); cs.Grants == 0 {
		t.Errorf("coordinator stats %+v: the gated erasers never took a window", cs)
	}

	group.CrashNode("n1")
	group.CrashNode("n3")
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reader := env.Go("reader", func(p *sim.Proc) {
		for _, key := range keys {
			got, _, err := group.Get(p, key)
			if err != nil {
				t.Errorf("read %s from remounted node: %v", key, err)
				return
			}
			if !bytes.Equal(got, want[key]) {
				t.Errorf("read %s from remounted node: wrong bytes", key)
				return
			}
		}
	})
	env.RunUntilDone(reader)
}
