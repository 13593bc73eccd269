// Package ssd models conventional SSDs — the baselines the paper
// measures SDF against (Intel 320, Huawei Gen3, and a high-end PCIe
// drive; Tables 1 and 4, Figures 1, 8, 10-14).
//
// Unlike SDF, a conventional SSD hides its channels behind a single
// controller: logical addresses are striped across channels in 8 KB
// units, a page-level FTL performs out-of-place writes, background
// garbage collection compacts blocks (consuming the over-provisioned
// space), a DRAM buffer absorbs write bursts, and one channel per
// parity group stores RAID-style parity. All of this is executed
// algorithmically against the same NAND timing model used by the SDF
// channels, so bandwidth loss and latency variance emerge from the
// event timeline rather than from closed-form formulas.
package ssd

import (
	"time"

	"sdf/internal/hostif"
	"sdf/internal/nand"
	"sdf/internal/sim"
)

// InterfaceKind selects the host link.
type InterfaceKind int

// Host link kinds.
const (
	SATA InterfaceKind = iota
	PCIe
)

// Profile describes one SSD model. Controller costs are calibrated so
// the simulated devices reproduce the measured bandwidths of Table 1
// (see EXPERIMENTS.md for the fit).
type Profile struct {
	Name      string
	Interface InterfaceKind

	Channels int
	Chips    int // chips per channel
	Nand     nand.Params

	BusRate     float64       // per-channel bus, bytes/s
	BusOverhead time.Duration // per page transaction

	// StripePages is the striping unit in pages (1 = 8 KB, the unit
	// used by the Huawei Gen3; §3.1).
	StripePages int

	// OverProvision is the fraction of raw data-channel capacity
	// reserved for garbage collection.
	OverProvision float64

	// ParityRatio N means every N data channels are protected by one
	// parity channel (the paper's ~10% parity reservation; §2.2).
	// Zero disables parity.
	ParityRatio int

	// BufferBytes is the battery-backed DRAM write buffer (1 GB on the
	// Huawei Gen3; §3.2). Zero means write-through.
	BufferBytes int64

	// Controller pipeline costs (single FTL engine, serialized):
	// per request, per page read, per page write (flush), and per
	// page ingest into the DRAM buffer.
	ReqProc       time.Duration
	ReadPageProc  time.Duration
	WritePageProc time.Duration
	IngestProc    time.Duration

	// StaticWL enables background static wear leveling (conventional
	// drives have it; SDF deliberately does not; §2.2).
	StaticWL bool
	// StaticWLSpread is the erase-count imbalance that triggers a
	// migration (default 16).
	StaticWLSpread int

	Stack hostif.StackParams

	Seed int64
}

// Background GC starts when a plane's free-block count drops to
// gcLowWater; host allocation stalls at gcReserve. Every profile
// uses these values.
const (
	gcLowWater = 3
	gcReserve  = 1
)

// Intel320 is the paper's low-end drive: SATA 2.0, 10 channels, 40
// planes, 300/300 MB/s raw, measured 219/153 MB/s at 20% OP (Table 1).
func Intel320(overProvision float64) Profile {
	n := nand.MLC25nm()
	n.TProg = 1090 * time.Microsecond // 30 MB/s raw write per channel
	n.BlocksPerPlane = 128
	return Profile{
		Name:          "Intel 320",
		Interface:     SATA,
		Channels:      10,
		Chips:         2,
		Nand:          n,
		BusRate:       30e6, // 300 MB/s raw read over 10 channels
		BusOverhead:   10 * time.Microsecond,
		StripePages:   1,
		OverProvision: overProvision,
		ParityRatio:   9, // 1 of 10 channels stores parity
		BufferBytes:   32 << 20,
		ReqProc:       14 * time.Microsecond,
		ReadPageProc:  34 * time.Microsecond,
		WritePageProc: 48 * time.Microsecond,
		IngestProc:    2 * time.Microsecond,
		StaticWL:      true,
		Stack:         hostif.KernelStack(),
	}
}

// HuaweiGen3 is the paper's mid-range drive and SDF's direct
// predecessor: same channel count, NAND, and FPGA hardware as SDF
// (Table 3) but a conventional single-controller architecture.
// Raw 1600/950 MB/s, measured 1200/460 MB/s at 25% OP (Table 1).
func HuaweiGen3(overProvision float64) Profile {
	n := nand.MLC25nm()
	n.BlocksPerPlane = 128
	return Profile{
		Name:          "Huawei Gen3",
		Interface:     PCIe,
		Channels:      44,
		Chips:         2,
		Nand:          n,
		BusRate:       40e6,
		BusOverhead:   10 * time.Microsecond,
		StripePages:   1,
		OverProvision: overProvision,
		ParityRatio:   10, // 44 channels: 4 parity
		BufferBytes:   1 << 30,
		ReqProc:       2 * time.Microsecond,
		ReadPageProc:  7200 * time.Nanosecond,
		WritePageProc: 15 * time.Microsecond,
		IngestProc:    1 * time.Microsecond,
		StaticWL:      true,
		Stack:         hostif.KernelStack(),
	}
}

// HighEnd is the paper's high-end drive (Memblaze Q520 class): PCIe,
// 32 channels with 16 planes each, 34 nm MLC. Raw 1600/1500 MB/s,
// measured 1300/620 MB/s at 20% OP (Table 1).
func HighEnd(overProvision float64) Profile {
	n := nand.MLC25nm()
	n.Planes = 4
	n.TProg = 2800 * time.Microsecond // slower 34 nm MLC program
	n.TRead = 50 * time.Microsecond
	n.BlocksPerPlane = 64
	return Profile{
		Name:          "High-end",
		Interface:     PCIe,
		Channels:      32,
		Chips:         4, // 4 chips x 4 planes = 16 planes per channel
		Nand:          n,
		BusRate:       50e6, // 1600 MB/s raw read over 32 channels
		BusOverhead:   10 * time.Microsecond,
		StripePages:   1,
		OverProvision: overProvision,
		ParityRatio:   15, // 32 channels: 2 parity
		BufferBytes:   512 << 20,
		ReqProc:       2 * time.Microsecond,
		ReadPageProc:  6300 * time.Nanosecond,
		WritePageProc: 12 * time.Microsecond,
		IngestProc:    1 * time.Microsecond,
		StaticWL:      true,
		Stack:         hostif.KernelStack(),
	}
}

// ScaleBlocks returns a copy of the profile with n erase blocks per
// plane, shrinking the device so experiments that must fill it (GC
// steady state, near-full latency traces) stay fast. Bandwidth
// characteristics are unchanged.
func (p Profile) ScaleBlocks(n int) Profile {
	p.Nand.BlocksPerPlane = n
	return p
}

// newInterface builds the profile's host link on env.
func (p Profile) newInterface(env *sim.Env) *hostif.Interface {
	if p.Interface == SATA {
		return hostif.SATA2(env)
	}
	return hostif.PCIe11x8(env)
}
