// Wearout exercises the reliability machinery the SDF card keeps
// after dropping parity and static wear leveling (§2.2): per-chip BCH
// error correction, dynamic wear leveling, and bad-block retirement.
// It hammers one channel with erase/write cycles on flash whose bit
// error rate grows with wear, until the channel runs out of healthy
// blocks, and reports what the BCH codec absorbed along the way.
//
// Run with:
//
//	go run ./examples/wearout
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"sdf/internal/flashchan"
	"sdf/internal/sim"
)

func main() {
	env := sim.NewEnv()

	cfg := flashchan.DefaultConfig()
	cfg.Nand.BlocksPerPlane = 12
	cfg.Nand.PagesPerBlock = 8 // 64 KB erase blocks to keep the run small
	cfg.Nand.RetainData = true
	cfg.Nand.EraseLimit = 60 // short-lived flash for the demo
	cfg.Nand.BaseBER = 1e-5
	cfg.Nand.WearBER = 3e-4 // errors climb steeply as blocks age
	cfg.SparePerPlane = 3
	cfg.ECC = true
	cfg.Seed = 42

	ch, err := flashchan.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channel: %d logical blocks of %d KiB, BCH t=%d per %d B sector\n",
		ch.LogicalBlocks(), ch.BlockSize()>>10, flashchan.ECCT, flashchan.ECCSector)

	main := env.Go("wearout", func(p *sim.Proc) {
		payload := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(7)).Read(payload)
		cycles := 0
		for {
			lbn := cycles % ch.LogicalBlocks()
			if err := ch.EraseWrite(p, lbn, payload); err != nil {
				if errors.Is(err, flashchan.ErrOutOfSpace) {
					fmt.Printf("\nchannel wore out after %d erase/write cycles\n", cycles)
					break
				}
				log.Fatal(err)
			}
			if _, err := ch.ReadAt(p, lbn, 0, ch.BlockSize()); err != nil {
				if errors.Is(err, flashchan.ErrUncorrectable) {
					// The rare event the paper reports once across
					// 2000+ cards: BCH gives up and software recovers
					// from a replica (§2.2).
					fmt.Printf("cycle %5d: UNCORRECTABLE sector — replica recovery needed\n", cycles)
				} else {
					log.Fatal(err)
				}
			}
			cycles++
			if cycles%100 == 0 {
				w := ch.Wear()
				corrected, failures := ch.ECCStats()
				fmt.Printf("cycle %5d: wear %d..%d, bad blocks %d, "+
					"BCH corrected %6d bit errors (%d uncorrectable sectors)\n",
					cycles, w.MinErase, w.MaxErase, w.BadBlocks, corrected, failures)
			}
		}
		w := ch.Wear()
		corrected, failures := ch.ECCStats()
		fmt.Printf("final: wear %d..%d across blocks (dynamic leveling kept spread tight)\n",
			w.MinErase, w.MaxErase)
		fmt.Printf("       %d bad blocks retired, %d bit errors corrected, %d uncorrectable\n",
			w.BadBlocks, corrected, failures)
	})
	env.RunUntilDone(main)
	env.Close()
}
