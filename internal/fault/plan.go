// Package fault is the deterministic fault-injection subsystem
// (DESIGN.md §9). A Plan is a seed-reproducible schedule of
// injections at virtual instants; an Injector arms the plan against a
// running simulation through per-target handlers registered by the
// attach helpers. Because every injection fires from the discrete
// event scheduler and every random choice comes from a seeded stream,
// the same plan and seed produce a byte-identical trace — availability
// experiments replay exactly.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// Kind names one failure mode.
type Kind string

// Injection kinds.
const (
	// ChannelKill takes a flash channel engine offline (ErrChannelDead
	// until revival). Duration 0 means permanent.
	ChannelKill Kind = "channel-kill"
	// ChannelHang stalls a channel engine for Duration; queued
	// commands wait it out.
	ChannelHang Kind = "channel-hang"
	// GrownBadBlocks retires Count spare blocks on a channel, as
	// field-grown defects.
	GrownBadBlocks Kind = "grown-bad-blocks"
	// ECCBurst adds Rate of raw bit error rate to a channel's chips
	// for Duration (uncorrectable reads when pushed past BCH t).
	ECCBurst Kind = "ecc-burst"
	// LinkDegrade multiplies a link's data rate by Factor for
	// Duration (a PCIe lane or NIC dropping to a degraded speed).
	LinkDegrade Kind = "link-degrade"
	// PacketLoss sets an RPC network's wire loss probability to Rate
	// for Duration.
	PacketLoss Kind = "packet-loss"
	// NodeCrash takes a cluster node out of service; with Duration it
	// restarts (and re-replicates) automatically.
	NodeCrash Kind = "node-crash"
	// NodeRestart explicitly restarts a crashed node.
	NodeRestart Kind = "node-restart"
	// Powerloss cuts power at the fire instant: a device target halts
	// with its media frozen mid-operation (torn pages, partial
	// erases); a node target additionally halts the node's journal
	// and, with a Duration, restarts the node through the mount-time
	// recovery path instead of a plain revive.
	Powerloss Kind = "powerloss"
)

var kinds = map[Kind]bool{
	ChannelKill: true, ChannelHang: true, GrownBadBlocks: true,
	ECCBurst: true, LinkDegrade: true, PacketLoss: true,
	NodeCrash: true, NodeRestart: true, Powerloss: true,
}

// kindNames returns the valid kinds, sorted, for error messages.
func kindNames() []string {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	return names
}

// Injection is one scheduled fault.
type Injection struct {
	// At is the virtual instant the fault fires, relative to the
	// moment the plan is armed.
	At time.Duration `json:"at"`
	// Kind selects the failure mode.
	Kind Kind `json:"kind"`
	// Target names the victim, as registered with the Injector
	// ("sdf0/chan3", "node1", "node1/nic", "net").
	Target string `json:"target"`
	// Duration is how long the fault lasts before its revert runs;
	// 0 means permanent (or instantaneous for kinds with no revert).
	Duration time.Duration `json:"duration,omitempty"`
	// Factor is the link-degrade rate multiplier (0 < Factor <= 1).
	Factor float64 `json:"factor,omitempty"`
	// Rate is the packet-loss probability or ECC-burst raw BER.
	Rate float64 `json:"rate,omitempty"`
	// Count is how many blocks grown-bad-blocks retires.
	Count int `json:"count,omitempty"`
	// Every and Repeat make the injection recurring: it fires Repeat
	// times, at At, At+Every, At+2·Every, … — a scheduled chaos
	// cadence (periodic power cuts, repeated bursts). Repeat <= 1 with
	// Every unset is the ordinary one-shot. A timed recurring fault
	// must fully revert before its next occurrence (Duration < Every).
	Every  time.Duration `json:"every,omitempty"`
	Repeat int           `json:"repeat,omitempty"`
}

// occurrences is how many times the injection fires when armed.
func (in Injection) occurrences() int {
	if in.Repeat > 1 {
		return in.Repeat
	}
	return 1
}

// occurrence returns the k-th firing of the injection as a one-shot.
func (in Injection) occurrence(k int) Injection {
	occ := in
	occ.At = in.At + time.Duration(k)*in.Every
	occ.Every, occ.Repeat = 0, 0
	return occ
}

// maxHorizon bounds the plan-relative instant at which any occurrence
// ends. Arm offsets the whole plan by the instant it is armed at, so
// half of the int64 range (about 146 years of virtual time) is left
// for that offset and no scheduled instant can wrap into the past.
const maxHorizon = time.Duration(math.MaxInt64 / 2)

// maxOccurrences bounds how many one-shots a plan expands into at Arm.
// The built-in plans use at most 2 per injection.
const maxOccurrences = 1 << 16

// endsInHorizon reports whether the injection's last occurrence ends,
// At + (occurrences-1)·Every + Duration, within maxHorizon. At, Every
// and Duration must be non-negative.
func (in Injection) endsInHorizon() bool {
	last := time.Duration(in.occurrences() - 1)
	if in.At > maxHorizon || (last > 0 && in.Every > (maxHorizon-in.At)/last) {
		return false
	}
	return in.Duration <= maxHorizon-(in.At+last*in.Every)
}

// Plan is a reproducible fault schedule.
type Plan struct {
	Seed       int64       `json:"seed"`
	Injections []Injection `json:"injections"`
}

// Validate checks every injection and normalizes the plan: injections
// are sorted by fire time (stable, so equal-time order is the plan's
// own order). A plan whose occurrences would end past maxHorizon, or
// that expands into more than maxOccurrences one-shots, is rejected.
func (pl *Plan) Validate() error {
	total := 0
	for i, in := range pl.Injections {
		if !kinds[in.Kind] {
			return fmt.Errorf("fault: injection %d: unknown kind %q (valid kinds: %s)",
				i, in.Kind, strings.Join(kindNames(), ", "))
		}
		if in.At < 0 {
			return fmt.Errorf("fault: injection %d: negative time %v", i, in.At)
		}
		if in.Target == "" {
			return fmt.Errorf("fault: injection %d: empty target", i)
		}
		if in.Duration < 0 {
			return fmt.Errorf("fault: injection %d: negative duration", i)
		}
		if in.Every < 0 {
			return fmt.Errorf("fault: injection %d: negative every %v", i, in.Every)
		}
		if in.Repeat < 0 {
			return fmt.Errorf("fault: injection %d: negative repeat %d", i, in.Repeat)
		}
		if in.Repeat > 1 && in.Every <= 0 {
			return fmt.Errorf("fault: injection %d: repeat %d needs every > 0", i, in.Repeat)
		}
		if in.Every > 0 && in.Repeat <= 1 {
			return fmt.Errorf("fault: injection %d: every %v needs repeat > 1", i, in.Every)
		}
		if in.Repeat > 1 && in.Duration >= in.Every {
			return fmt.Errorf("fault: injection %d: duration %v must be shorter than every %v",
				i, in.Duration, in.Every)
		}
		if in.occurrences() > maxOccurrences-total {
			return fmt.Errorf("fault: injection %d: plan expands into more than %d occurrences", i, maxOccurrences)
		}
		total += in.occurrences()
		if !in.endsInHorizon() {
			return fmt.Errorf("fault: injection %d: last occurrence ends past %v", i, maxHorizon)
		}
		switch in.Kind {
		case ChannelHang:
			if in.Duration == 0 {
				return fmt.Errorf("fault: injection %d: %s needs a duration", i, in.Kind)
			}
		case GrownBadBlocks:
			if in.Count <= 0 {
				return fmt.Errorf("fault: injection %d: %s needs count > 0", i, in.Kind)
			}
		case ECCBurst:
			if in.Rate <= 0 {
				return fmt.Errorf("fault: injection %d: %s needs rate > 0", i, in.Kind)
			}
		case LinkDegrade:
			if in.Factor <= 0 || in.Factor > 1 {
				return fmt.Errorf("fault: injection %d: %s needs 0 < factor <= 1", i, in.Kind)
			}
		case PacketLoss:
			if in.Rate < 0 || in.Rate > 1 {
				return fmt.Errorf("fault: injection %d: %s needs rate in [0,1]", i, in.Kind)
			}
		}
	}
	sort.SliceStable(pl.Injections, func(i, j int) bool {
		return pl.Injections[i].At < pl.Injections[j].At
	})
	return nil
}

// Parse decodes a plan from JSON and validates it.
func Parse(data []byte) (*Plan, error) {
	var pl Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &pl, nil
}

// Load reads and validates a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(data)
}

// Save writes the plan as indented JSON.
func (pl *Plan) Save(path string) error {
	data, err := json.MarshalIndent(pl, "", "  ")
	if err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders the plan as an aligned human-readable schedule.
func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan: seed %d, %d injections\n", pl.Seed, len(pl.Injections))
	rows := make([][]string, 0, len(pl.Injections))
	for _, in := range pl.Injections {
		detail := "permanent"
		if in.Duration > 0 {
			detail = fmt.Sprintf("for %v", in.Duration)
		}
		switch in.Kind {
		case GrownBadBlocks:
			detail = fmt.Sprintf("%d blocks", in.Count)
		case ECCBurst:
			detail += fmt.Sprintf(", ber %.1e", in.Rate)
		case LinkDegrade:
			detail += fmt.Sprintf(", rate x%.2f", in.Factor)
		case PacketLoss:
			detail += fmt.Sprintf(", loss %.0f%%", in.Rate*100)
		case NodeRestart:
			detail = ""
		case Powerloss:
			if in.Duration > 0 {
				detail = fmt.Sprintf("restart after %v", in.Duration)
			}
		}
		if in.Repeat > 1 {
			if detail != "" {
				detail += ", "
			}
			detail += fmt.Sprintf("x%d every %v", in.Repeat, in.Every)
		}
		rows = append(rows, []string{
			"t=+" + in.At.String(), string(in.Kind), in.Target, detail,
		})
	}
	widths := make([]int, 4)
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		b.WriteString(" ")
		for i, cell := range row {
			fmt.Fprintf(&b, " %-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RandomPlan builds a reproducible chaos schedule over the named
// nodes: the horizon splits into six epochs and each epoch impairs
// exactly one victim node (a channel kill, hang, or ECC burst on one
// of its channels, a NIC degrade, or a whole-node crash), with every
// fault reverted well before the epoch ends. At most one node is ever
// impaired at a time, so a group with replication factor >= 2 always
// has a healthy replica — the invariant the chaos property test
// asserts.
func RandomPlan(seed int64, nodes []string, channels int, horizon time.Duration) *Plan {
	pl := &Plan{Seed: seed}
	if len(nodes) == 0 || channels <= 0 || horizon <= 0 {
		return pl
	}
	rng := rand.New(rand.NewSource(seed))
	const epochs = 6
	epoch := horizon / epochs
	if epoch <= 0 {
		return pl
	}
	for e := 0; e < epochs; e++ {
		at := time.Duration(e)*epoch + epoch/4
		dur := epoch / 2
		victim := nodes[rng.Intn(len(nodes))]
		chanTarget := fmt.Sprintf("%s/chan%d", victim, rng.Intn(channels))
		var in Injection
		switch rng.Intn(5) {
		case 0:
			in = Injection{At: at, Kind: ChannelKill, Target: chanTarget, Duration: dur}
		case 1:
			in = Injection{At: at, Kind: ChannelHang, Target: chanTarget, Duration: dur}
		case 2:
			in = Injection{At: at, Kind: ECCBurst, Target: chanTarget, Duration: dur, Rate: 1e-2}
		case 3:
			in = Injection{At: at, Kind: LinkDegrade, Target: victim + "/nic", Duration: dur, Factor: 0.05}
		case 4:
			in = Injection{At: at, Kind: NodeCrash, Target: victim, Duration: dur}
		}
		pl.Injections = append(pl.Injections, in)
	}
	return pl
}
