package fault

import (
	"fmt"

	"sdf/internal/cluster"
	"sdf/internal/core"
	"sdf/internal/rpcnet"
	"sdf/internal/ssd"
)

// AttachDevice registers an SDF device's fault surfaces under
// "<name>/chan<i>" (channel kill/hang/bad-block/ECC targets),
// "<name>/pcie" (link degradation), and the bare "<name>" for whole-
// device power loss.
func AttachDevice(inj *Injector, name string, dev *core.Device) {
	inj.Register(name, func(in Injection) func() {
		if in.Kind == Powerloss {
			// Permanent by definition at the device level: bringing the
			// device back requires a remount and the recovery scan,
			// which the owner of the device state must drive (see
			// ccdb.SDFReplica for the node-level restart path).
			dev.PowerLoss()
		}
		return nil
	})
	attachChannels(inj, name, dev.Channels(), func() *core.Device { return dev })
}

// attachChannels registers the "<name>/chan<i>" and "<name>/pcie"
// targets of an SDF device with the given channel count. cur resolves
// the device each time an injection fires, so the targets of a
// replica follow it across remounts; a revert acts on the channel or
// link its injection hit.
func attachChannels(inj *Injector, name string, channels int, cur func() *core.Device) {
	for i := 0; i < channels; i++ {
		inj.Register(fmt.Sprintf("%s/chan%d", name, i), func(in Injection) func() {
			ch := cur().Channel(i)
			switch in.Kind {
			case ChannelKill:
				ch.Kill()
				if in.Duration > 0 {
					return ch.Revive
				}
			case ChannelHang:
				ch.Hang(in.Duration)
				// The hang expires inside the channel engine; the no-op
				// revert just holds the injector's fault span open for
				// the hang window.
				return func() {}
			case GrownBadBlocks:
				ch.GrowBadBlocks(in.Count)
			case ECCBurst:
				ch.SetBERBoost(in.Rate)
				if in.Duration > 0 {
					return func() { ch.SetBERBoost(0) }
				}
			}
			return nil
		})
	}
	inj.Register(name+"/pcie", func(in Injection) func() {
		return linkHandler(cur().PCIe())(in)
	})
}

// AttachSSD registers a conventional SSD's fault surfaces under
// "<name>/chan<i>" and "<name>/pcie", mirroring AttachDevice so the
// same plan can drive either device kind. A channel kill or hang puts
// the channel into degraded-parity mode — the drive's internal RAID
// masks the loss and serves reconstruction reads — permanently for a
// kill (or until its Duration elapses), and for the hang window for a
// hang. Bad-block and ECC injections have no conventional-SSD surface
// (the FTL hides media management entirely) and are ignored.
func AttachSSD(inj *Injector, name string, dev *ssd.SSD) {
	for i := 0; i < dev.Channels(); i++ {
		ch := i
		inj.Register(fmt.Sprintf("%s/chan%d", name, ch), func(in Injection) func() {
			switch in.Kind {
			case ChannelKill, ChannelHang:
				dev.DegradeChannel(ch)
				if in.Duration > 0 {
					return func() { dev.RestoreChannel(ch) }
				}
			}
			return nil
		})
	}
	inj.Register(name+"/pcie", linkHandler(dev.PCIe()))
}

// AttachGroup registers every node of a replica group: the node name
// itself takes node-crash/node-restart/powerloss, and "<node>/nic"
// takes link-degrade on the node's NIC. An SDF node
// (cluster.NewSDFNode) also gets its device's "<node>/chan<i>" and
// "<node>/pcie" targets, resolved against the replica's current
// device when they fire: after a power cut and remount they hit the
// remounted card, not the dead one.
func AttachGroup(inj *Injector, g *cluster.Group) {
	for _, node := range g.Nodes() {
		inj.Register(node.Name, func(in Injection) func() {
			switch in.Kind {
			case NodeCrash:
				g.CrashNode(node.Name)
				if in.Duration > 0 {
					return func() { g.RestartNode(node.Name) }
				}
			case NodeRestart:
				g.RestartNode(node.Name)
			case Powerloss:
				g.PowerLossNode(node.Name)
				if in.Duration > 0 {
					return func() { g.RestartNode(node.Name) }
				}
			}
			return nil
		})
		inj.Register(node.Name+"/nic", linkHandler(node.NIC()))
		if r := node.Replica(); r != nil {
			attachChannels(inj, node.Name, r.Dev.Channels(), func() *core.Device { return r.Dev })
		}
	}
}

// degradable is a link whose rate a link-degrade injection scales: a
// NIC (sim.SharedLink) or a PCIe interface (hostif.Interface).
type degradable interface {
	RateFactor() float64
	SetRateFactor(f float64)
}

// linkHandler applies link-degrade injections to l, restoring its
// previous factor when a timed injection ends.
func linkHandler(l degradable) Handler {
	return func(in Injection) func() {
		if in.Kind != LinkDegrade {
			return nil
		}
		return degrade(l, in)
	}
}

// degrade scales l's rate by the injection's factor and returns the
// revert for a timed injection (nil for a permanent one).
func degrade(l degradable, in Injection) func() {
	old := l.RateFactor()
	l.SetRateFactor(in.Factor)
	if in.Duration > 0 {
		return func() { l.SetRateFactor(old) }
	}
	return nil
}

// AttachNetwork registers an RPC network under the given target name:
// packet-loss flips the wire loss probability, link-degrade throttles
// the server NIC pool.
func AttachNetwork(inj *Injector, target string, n *rpcnet.Network) {
	inj.Register(target, func(in Injection) func() {
		switch in.Kind {
		case PacketLoss:
			old := n.LossRate()
			n.InjectLoss(in.Rate)
			if in.Duration > 0 {
				return func() { n.InjectLoss(old) }
			}
		case LinkDegrade:
			return degrade(n.ServerLink(), in)
		}
		return nil
	})
}
