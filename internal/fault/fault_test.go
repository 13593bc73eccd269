package fault

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

func testPlan() *Plan {
	return &Plan{
		Seed: 7,
		Injections: []Injection{
			{At: 10 * time.Millisecond, Kind: ChannelKill, Target: "sdf0/chan1", Duration: 20 * time.Millisecond},
			{At: 5 * time.Millisecond, Kind: ECCBurst, Target: "sdf0/chan0", Duration: time.Millisecond, Rate: 1e-2},
			{At: 40 * time.Millisecond, Kind: GrownBadBlocks, Target: "sdf0/chan2", Count: 4},
		},
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	pl := testPlan()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pl) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, pl)
	}
	// Validate sorted by fire time.
	for i := 1; i < len(got.Injections); i++ {
		if got.Injections[i].At < got.Injections[i-1].At {
			t.Fatalf("injections not sorted: %v after %v",
				got.Injections[i].At, got.Injections[i-1].At)
		}
	}
	if s := pl.String(); !strings.Contains(s, "channel-kill") || !strings.Contains(s, "sdf0/chan1") {
		t.Fatalf("String() missing schedule content:\n%s", s)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Injection{
		{At: 0, Kind: "meteor-strike", Target: "x"},
		{At: -time.Second, Kind: ChannelKill, Target: "x"},
		{At: 0, Kind: ChannelKill, Target: ""},
		{At: 0, Kind: ChannelHang, Target: "x"},                             // no duration
		{At: 0, Kind: GrownBadBlocks, Target: "x"},                          // no count
		{At: 0, Kind: ECCBurst, Target: "x", Duration: time.Second},         // no rate
		{At: 0, Kind: LinkDegrade, Target: "x", Factor: 1.5},                // factor > 1
		{At: 0, Kind: PacketLoss, Target: "x", Rate: 2},                     // rate > 1
		{At: 0, Kind: ChannelKill, Target: "x", Duration: -time.Nanosecond}, // negative duration
		// Occurrences past the horizon would wrap to the past once Arm
		// adds the arming instant.
		{At: math.MaxInt64, Kind: ChannelKill, Target: "x"},
		{At: 1 << 62, Kind: ChannelKill, Target: "x", Every: 1 << 62, Repeat: 3},
		{At: maxHorizon, Kind: ChannelHang, Target: "x", Duration: 1},
		// Billions of occurrences would all be scheduled at Arm.
		{At: 0, Kind: ChannelKill, Target: "x", Every: time.Millisecond, Repeat: 2000000000},
		{At: 0, Kind: ChannelKill, Target: "x", Every: time.Millisecond, Repeat: maxOccurrences + 1},
	}
	for i, in := range bad {
		pl := &Plan{Injections: []Injection{in}}
		if err := pl.Validate(); err == nil {
			t.Errorf("case %d (%s): Validate accepted %+v", i, in.Kind, in)
		}
	}
}

func TestArmUnknownTarget(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	inj := NewInjector(env)
	inj.Register("known", func(Injection) func() { return nil })
	err := inj.Arm(&Plan{Injections: []Injection{
		{At: 0, Kind: ChannelKill, Target: "ghost"},
	}})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Arm = %v, want error naming the missing target", err)
	}
}

func newTestDevice(t *testing.T, env *sim.Env) *core.Device {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.ECC = true
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestInjectorAppliesAndReverts(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev := newTestDevice(t, env)
	inj := NewInjector(env)
	AttachDevice(inj, "sdf0", dev)

	pl := &Plan{Injections: []Injection{
		{At: 10 * time.Millisecond, Kind: ChannelKill, Target: "sdf0/chan1", Duration: 20 * time.Millisecond},
		{At: 10 * time.Millisecond, Kind: ChannelKill, Target: "sdf0/chan2"}, // permanent
		{At: 15 * time.Millisecond, Kind: LinkDegrade, Target: "sdf0/pcie", Duration: 5 * time.Millisecond, Factor: 0.25},
	}}
	if err := inj.Arm(pl); err != nil {
		t.Fatal(err)
	}

	env.RunUntil(12 * time.Millisecond)
	if dev.Channel(1).Alive() || dev.Channel(2).Alive() {
		t.Fatal("channels 1 and 2 should be dead at t=12ms")
	}
	env.RunUntil(17 * time.Millisecond)
	if f := dev.PCIe().RateFactor(); f != 0.25 {
		t.Fatalf("PCIe factor = %v at t=17ms, want 0.25", f)
	}
	env.RunUntil(50 * time.Millisecond)
	if !dev.Channel(1).Alive() {
		t.Fatal("channel 1 should have revived at t=30ms")
	}
	if dev.Channel(2).Alive() {
		t.Fatal("channel 2 kill was permanent, but it revived")
	}
	if f := dev.PCIe().RateFactor(); f != 1 {
		t.Fatalf("PCIe factor = %v after revert, want 1", f)
	}
	if applied, reverted := inj.Stats(); applied != 3 || reverted != 2 {
		t.Fatalf("stats = %d applied / %d reverted, want 3/2", applied, reverted)
	}
}

// chaosWorkload writes and repeatedly reads through a block layer
// while faults fire, exercising retry/quarantine paths.
func chaosWorkload(t *testing.T, env *sim.Env, dev *core.Device) *sim.Proc {
	t.Helper()
	bl := blocklayer.New(env, dev, blocklayer.DefaultConfig())
	return env.Go("workload", func(p *sim.Proc) {
		buf := make([]byte, bl.BlockSize())
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < 8; i++ {
			if _, err := bl.Write(p, blocklayer.BlockID(i), buf); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		for round := 0; round < 6; round++ {
			p.Wait(8 * time.Millisecond)
			for i := 0; i < 8; i++ {
				// Errors are fine here (a replica-less block layer can
				// lose access to a dead channel); determinism is what
				// the trace hash checks.
				bl.Read(p, blocklayer.BlockID(i), 0, 512)
			}
		}
	})
}

// TestDeterministicReplay is the core contract: same seed, same plan,
// byte-identical trace.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		env := sim.NewEnv()
		defer env.Close()
		tr := trace.NewCollector()
		env.SetTracer(tr)
		dev := newTestDevice(t, env)
		inj := NewInjector(env)
		AttachDevice(inj, "sdf0", dev)
		pl := &Plan{Injections: []Injection{
			{At: 5 * time.Millisecond, Kind: ECCBurst, Target: "sdf0/chan0", Duration: 10 * time.Millisecond, Rate: 5e-3},
			{At: 12 * time.Millisecond, Kind: ChannelHang, Target: "sdf0/chan1", Duration: 6 * time.Millisecond},
			{At: 20 * time.Millisecond, Kind: ChannelKill, Target: "sdf0/chan2", Duration: 15 * time.Millisecond},
			{At: 30 * time.Millisecond, Kind: LinkDegrade, Target: "sdf0/pcie", Duration: 8 * time.Millisecond, Factor: 0.5},
		}}
		if err := inj.Arm(pl); err != nil {
			t.Fatal(err)
		}
		w := chaosWorkload(t, env, dev)
		env.RunUntilDone(w)
		env.Run() // drain revert events so both runs end identically
		return tr.Hash()
	}
	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("fault-injected replay diverged: %s vs %s", h1, h2)
	}
	if h1 == trace.Hash(nil) {
		t.Fatal("trace is empty; workload produced no events")
	}
}

func TestRandomPlanReproducibleAndBounded(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	pl1 := RandomPlan(99, nodes, 4, 1200*time.Millisecond)
	pl2 := RandomPlan(99, nodes, 4, 1200*time.Millisecond)
	if !reflect.DeepEqual(pl1, pl2) {
		t.Fatal("same seed produced different plans")
	}
	if reflect.DeepEqual(pl1, RandomPlan(100, nodes, 4, 1200*time.Millisecond)) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := pl1.Validate(); err != nil {
		t.Fatalf("random plan invalid: %v", err)
	}
	if len(pl1.Injections) == 0 {
		t.Fatal("random plan is empty")
	}
	// Epoch containment: every fault ends before the next begins, so at
	// most one node is impaired at any instant (the RF>=2 safety
	// argument).
	for i, in := range pl1.Injections {
		if in.Duration == 0 {
			t.Fatalf("injection %d is permanent; random plans must self-heal", i)
		}
		if i > 0 {
			prev := pl1.Injections[i-1]
			if prev.At+prev.Duration > in.At {
				t.Fatalf("injection %d overlaps %d: [%v+%v] vs %v",
					i-1, i, prev.At, prev.Duration, in.At)
			}
		}
	}
}
