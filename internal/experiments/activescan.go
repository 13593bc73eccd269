package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/sim"
)

// FutureWorkActiveScan evaluates "moving compute to the storage"
// (§2.1's unused FPGA headroom, §5, and the authors' Active SSD
// paper): a filtering scan runs either on the host (every byte crosses
// PCIe) or inside the channel engines (only matches cross PCIe), while
// a foreground 8 KB random-read service shares the device. In-storage
// filtering frees the PCIe link for the foreground traffic.
func FutureWorkActiveScan(opts Options) Table {
	t := Table{
		ID:     "Future work (sec 5, Active SSD)",
		Title:  "Filtered full-device scan (5% selectivity) beside 8 KB foreground reads",
		Header: []string{"Scan location", "Foreground reads", "Scan rate (flash)", "PCIe bytes for scan"},
		Notes: []string{
			"the flash-side cost of the scan is identical; in-storage filtering moves 20x fewer bytes to the host",
		},
	}
	const selectivity = 0.05
	for _, inStorage := range []bool{false, true} {
		env := opts.newEnv()
		dev := newSDF(env, 16)
		warmup := opts.scale(time.Second)
		deadline := opts.scale(4 * time.Second)
		fg := newMeterCtx(env, warmup, deadline)
		scan := newMeterCtx(env, warmup, deadline)
		var scanPCIe int64
		rng := rand.New(rand.NewSource(23))
		pages := dev.BlockSize() / dev.PageSize()
		for ch := 0; ch < dev.Channels(); ch++ {
			// Setup plus foreground reader.
			wrote := false
			fg.loop("fg", func(p *sim.Proc) int {
				if !wrote {
					for lbn := 0; lbn < 2; lbn++ {
						if err := dev.EraseWrite(p, ch, lbn, nil); err != nil {
							return -1
						}
					}
					wrote = true
					return 0
				}
				off := rng.Intn(pages) * dev.PageSize()
				if _, err := dev.Read(p, ch, 0, off, dev.PageSize()); err != nil {
					return -1
				}
				return dev.PageSize()
			})
			// Scanner over block 1 of the same channel.
			started := false
			scan.loop("scan", func(p *sim.Proc) int {
				if !started {
					p.Wait(time.Second) // let setup writes land
					started = true
					return 0
				}
				if inStorage {
					matched, err := dev.ScanFilter(p, ch, 1, selectivity)
					if err != nil {
						return -1
					}
					scanPCIe += int64(matched)
				} else {
					if _, err := dev.Read(p, ch, 1, 0, dev.BlockSize()); err != nil {
						return -1
					}
					scanPCIe += int64(dev.BlockSize())
				}
				return dev.BlockSize()
			})
		}
		fgRate := fg.rate()
		scanRate := scan.rate()
		env.Close()
		name := "host-side"
		if inStorage {
			name = "in-storage (channel FPGA)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			gb(fgRate),
			gb(scanRate),
			fmt.Sprintf("%d MiB", scanPCIe>>20),
		})
	}
	return t
}
