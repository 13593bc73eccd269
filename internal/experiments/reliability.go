package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"sdf/internal/flashchan"
	"sdf/internal/reliability"
	"sdf/internal/sim"
)

// Wearout regenerates the §2.2 reliability design: SDF keeps per-chip
// BCH, dynamic wear leveling and bad-block retirement on every channel
// and drops parity and static wear leveling. One channel on flash whose
// raw bit error rate climbs with wear is erased, written and read back
// whole, block by block round robin, until it has no healthy block
// left. Quick mode wears shorter-lived flash with half-size blocks.
func Wearout(opts Options) Table {
	cfg := flashchan.DefaultConfig()
	cfg.Nand.BlocksPerPlane = 12
	cfg.Nand.PagesPerBlock = 8
	cfg.Nand.RetainData = true
	cfg.Nand.EraseLimit = 60
	cfg.Nand.BaseBER = 1e-5
	cfg.Nand.WearBER = 3e-4
	cfg.SparePerPlane = 3
	cfg.ECC = true
	cfg.Seed = 42
	if opts.Quick {
		cfg.Nand.PagesPerBlock = 4
		cfg.Nand.EraseLimit = 20
	}
	env := opts.newEnv()
	defer env.Close()
	ch, err := flashchan.New(env, cfg)
	if err != nil {
		panic(err)
	}
	cycles := 0
	w := env.Go("wearout", func(p *sim.Proc) {
		payload := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(7)).Read(payload)
		for ; ; cycles++ {
			lbn := cycles % ch.LogicalBlocks()
			if err := ch.EraseWrite(p, lbn, payload); errors.Is(err, flashchan.ErrOutOfSpace) {
				return
			} else if err != nil {
				panic(err)
			}
			// An uncorrectable sector is counted by ECCStats and left
			// to the contract.
			if _, err := ch.ReadAt(p, lbn, 0, ch.BlockSize()); err != nil && !errors.Is(err, flashchan.ErrUncorrectable) {
				panic(err)
			}
		}
	})
	env.RunUntilDone(w)
	wear := ch.Wear()
	corrected, uncorrectable := ch.ECCStats()

	t := Table{
		ID:     "E13 (sec 2.2)",
		Title:  "One channel erased, written and read until it wears out",
		Header: []string{"Cycles", "Erase counts", "Blocks retired", "BCH-corrected bits", "Uncorrectable sectors"},
		Rows: [][]string{{
			strconv.Itoa(cycles),
			fmt.Sprintf("%d..%d", wear.MinErase, wear.MaxErase),
			strconv.Itoa(wear.BadBlocks),
			strconv.FormatInt(corrected, 10),
			strconv.FormatInt(uncorrectable, 10),
		}},
		Notes: []string{
			fmt.Sprintf("%d logical blocks of %d KiB, %d P/E endurance, raw BER %.0e + %.0e·(wear/endurance)², BCH t=%d per %d B sector",
				ch.LogicalBlocks(), ch.BlockSize()>>10, cfg.Nand.EraseLimit, cfg.Nand.BaseBER, cfg.Nand.WearBER, flashchan.ECCT, flashchan.ECCSector),
			"paper: BCH, dynamic wear leveling and bad-block retirement per channel suffice; one uncorrectable error on 2000+ cards in six months",
		},
	}
	t.metric("cycles", float64(cycles))
	t.metric("erase_min", float64(wear.MinErase))
	t.metric("erase_max", float64(wear.MaxErase))
	t.metric("retired_blocks", float64(wear.BadBlocks))
	t.metric("bch_corrected_bits", float64(corrected))
	t.metric("uncorrectable_sectors", float64(uncorrectable))
	return t
}

// reliabilityWears are the P/E counts at which Reliability evaluates
// the per-read uncorrectable probability.
var reliabilityWears = []int{500, 1500, 3000}

// Reliability evaluates the data-reliability model the paper leaves as
// future work (§5) at three wear levels and for the fleet of its §2.2
// field anecdote. It is analytic: no simulation runs.
func Reliability(Options) Table {
	m := reliability.SDFModel()
	t := Table{
		ID:     "Future work (sec 5, reliability model)",
		Title:  "Uncorrectable errors vs wear",
		Header: []string{"Scenario", "Wear (P/E)", "Uncorrectable"},
		Notes: []string{
			"model: " + m.String(),
			"the wear-BER curve is calibrated to the fleet row, so that row guards the calibration and is not an independent result",
		},
	}
	for _, wear := range reliabilityWears {
		p := m.DeviceUCEPerRead(wear, 8<<10)
		t.metric(fmt.Sprintf("uce_per_8k_read.pe%d", wear), p)
		t.Rows = append(t.Rows, []string{"one 8 KB read", strconv.Itoa(wear), fmt.Sprintf("%.2e", p)})
	}
	fleet := m.FleetUCEs(1200, 1e12, 2000, 180)
	t.metric("fleet_uces", fleet)
	t.Rows = append(t.Rows,
		[]string{"2000 cards, 1 TB/day each, 180 days", "1200", fmt.Sprintf("%.2f events", fleet)},
		[]string{"  (paper)", "", "1 event"})
	return t
}
