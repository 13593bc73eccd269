package experiments

import (
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/metrics"
	"sdf/internal/sim"
)

// TestReplicaMetricsFollowRemount cuts r2's power, restarts it, and
// requires every series registered for r2's device, block layer and
// slice to read the stack Remount built, not the dead one: a gauge must
// read what a fresh registration of the current objects would, and a
// counter that plus what the dead stack had counted.
func TestReplicaMetricsFollowRemount(t *testing.T) {
	run := newReplicaRun(Options{Quick: true}, "faults", "sdf")
	defer run.env.Close()
	env := run.env
	replicas := map[string]*ccdb.SDFReplica{}
	run.addReplicas(devSDF, func(name string) (*ccdb.SDFReplica, error) {
		cfg := core.DefaultConfig()
		cfg.Channel.Nand.BlocksPerPlane = 24
		cfg.Channel.Nand.PagesPerBlock = 16
		cfg.Channel.SparePerPlane = 2
		rep, err := ccdb.NewSDFReplica(env, cfg, blocklayer.DefaultConfig(), ccdb.Config{RunsPerTier: 64})
		replicas[name] = rep
		return rep, err
	})
	group := run.join(cluster.DefaultConfig())
	keys := run.preload(256)
	r2 := replicas["r2"]
	dead := *r2
	if err := run.inj.Arm(&fault.Plan{Seed: 1, Injections: []fault.Injection{
		{At: env.Now() + 10*time.Millisecond, Kind: fault.Powerloss, Target: "r2", Duration: 20 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	// Writes while r2 is down leave keys for re-replication to put on the
	// remounted slice once r2 is back.
	writer := env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			group.Put(p, keys[i], nil, pageValueSize)
			p.Wait(time.Millisecond)
		}
		p.Wait(time.Second)
	})
	env.RunUntilDone(writer)
	if r2.Layer == dead.Layer {
		t.Fatal("r2 was not remounted")
	}
	labels := []metrics.Label{run.devLabel, metrics.L("node", "r2")}
	register := func(rep *ccdb.SDFReplica) *metrics.Registry {
		reg := metrics.NewRegistry()
		rep.Dev.RegisterMetrics(reg, labels...)
		rep.Layer.RegisterMetrics(reg, labels...)
		rep.Slice.RegisterMetrics(reg, labels...)
		return reg
	}
	want, before := register(r2), register(&dead)
	_, spread := r2.Layer.WearLevelStats()
	id := `blocklayer_wear_spread{dev="sdf",node="r2"}`
	if got := run.reg.Get(id).Gauge.Value(); got != float64(spread) {
		t.Errorf("%s = %v, want the remounted layer's %d", id, got, spread)
	}
	want.Each(func(in *metrics.Instrument) {
		got := run.reg.Get(in.ID())
		if got == nil {
			t.Errorf("%s is not registered", in.ID())
			return
		}
		switch in.Kind {
		case metrics.KindCounter:
			old := before.Get(in.ID()).Counter.Value()
			if g, w := got.Counter.Value(), in.Counter.Value(); g != old+w {
				t.Errorf("%s = %d, want the dead stack's %d plus the remounted stack's %d", in.ID(), g, old, w)
			}
		case metrics.KindGauge:
			if g, w := got.Gauge.Value(), in.Gauge.Value(); g != w {
				t.Errorf("%s = %v, want the remounted stack's %v", in.ID(), g, w)
			}
		}
	})
}
