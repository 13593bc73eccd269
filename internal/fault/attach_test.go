package fault

import (
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// TestSDFNodeTargetsFollowRemount power-cuts n2 for 20 ms and, once
// the restart has remounted it, fires a channel kill and a PCIe
// degrade at n2's device targets. Both must land on the remounted
// card that now serves n2's reads, not on the dead pre-cut one.
func TestSDFNodeTargetsFollowRemount(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	inj := NewInjector(env)
	var nodes []*cluster.Node
	for _, name := range []string{"n1", "n2", "n3"} {
		cfg := core.DefaultConfig()
		cfg.Channels = 4
		cfg.Channel.Nand.BlocksPerPlane = 16
		cfg.Channel.Nand.PagesPerBlock = 4
		cfg.Channel.SparePerPlane = 2
		r, err := ccdb.NewSDFReplica(env, cfg, blocklayer.DefaultConfig(), ccdb.Config{RunsPerTier: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, cluster.NewSDFNode(env, name, r))
	}
	group, err := cluster.NewGroup(env, cluster.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	AttachGroup(inj, group)
	replica := nodes[1].Replica()
	cut := replica.Dev

	pl := &Plan{Seed: 1, Injections: []Injection{
		{At: 10 * time.Millisecond, Kind: Powerloss, Target: "n2", Duration: 20 * time.Millisecond},
		{At: 60 * time.Millisecond, Kind: ChannelKill, Target: "n2/chan0"},
		{At: 60 * time.Millisecond, Kind: LinkDegrade, Target: "n2/pcie", Factor: 0.5},
	}}
	if err := inj.Arm(pl); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(50 * time.Millisecond)
	if st := group.Stats(); st.Remounts != 1 || replica.Dev == cut {
		t.Fatalf("n2 not remounted before the channel faults: %d remounts", st.Remounts)
	}
	env.RunUntil(100 * time.Millisecond)

	if replica.Dev.Channel(0).Alive() {
		t.Error("n2/chan0 kill missed the remounted device: its channel 0 is alive")
	}
	if got := replica.Dev.PCIe().RateFactor(); got != 0.5 {
		t.Errorf("remounted n2/pcie rate factor = %v, want 0.5", got)
	}
	if got := cut.PCIe().RateFactor(); got != 1 {
		t.Errorf("pre-cut n2/pcie rate factor = %v, want 1 (untouched)", got)
	}
}
