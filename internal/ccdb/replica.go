package ccdb

import (
	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// SDFReplica is one journaled slice on its own SDF card: the device,
// the block layer over it, the write-ahead journal on the mirrored log
// device, and the slice. It is the unit SDF's recovery story works in
// (§2.2): with no device parity, a replica that loses power comes back
// by remounting its own media and replaying its own journal, and the
// other replicas cover the gap.
//
// The replica remembers the three configs it was built with, so a
// remount rebuilds exactly the stack that crashed — erase gate and
// static wear leveling included.
type SDFReplica struct {
	Dev     *core.Device
	Layer   *blocklayer.Layer
	Journal *Journal
	Slice   *Slice

	devCfg   core.Config
	layerCfg blocklayer.Config
	sliceCfg Config
}

// NewSDFReplica builds the stack on env: device, block layer, a fresh
// journal (it replaces sliceCfg.Journal), and the slice.
func NewSDFReplica(env *sim.Env, devCfg core.Config, layerCfg blocklayer.Config, sliceCfg Config) (*SDFReplica, error) {
	dev, err := core.New(env, devCfg)
	if err != nil {
		return nil, err
	}
	layer := blocklayer.New(env, dev, layerCfg)
	sliceCfg.Journal = NewJournal()
	return &SDFReplica{
		Dev:      dev,
		Layer:    layer,
		Journal:  sliceCfg.Journal,
		Slice:    NewSlice(env, NewSDFStore(layer), sliceCfg),
		devCfg:   devCfg,
		layerCfg: layerCfg,
		sliceCfg: sliceCfg,
	}, nil
}

// PowerLoss cuts the replica's power at the current instant: the
// device freezes mid-operation (in-flight programs and erases tear)
// and the journal stops accepting appends, so no write racing the cut
// is acknowledged. Both are flag flips, so it is safe from scheduler
// context.
func (r *SDFReplica) PowerLoss() {
	r.Dev.PowerLoss()
	r.Journal.Halt()
}

// Remount brings a powered-off replica back on env — the environment
// it ran in, or a fresh one — from its surviving media: the device
// scan and block-map rebuild, then the journal replay. On success the
// replica's Dev, Layer and Slice are the remounted ones; on error they
// are unchanged and still describe the dead stack.
func (r *SDFReplica) Remount(p *sim.Proc, env *sim.Env) (blocklayer.MountStats, ReplayReport, error) {
	var mst blocklayer.MountStats
	var rep ReplayReport
	dev, err := core.Mount(env, r.devCfg, r.Dev.State())
	if err != nil {
		return mst, rep, err
	}
	layer, mst, err := blocklayer.Mount(p, env, dev, r.layerCfg)
	if err != nil {
		return mst, rep, err
	}
	slice, rep, err := mountSlice(p, env, NewSDFStore(layer), r.sliceCfg)
	if err != nil {
		return mst, rep, err
	}
	r.Dev, r.Layer, r.Slice = dev, layer, slice
	return mst, rep, nil
}
