// Quickstart: build an SDF device, write an 8 MB block to one of its
// exposed channels, read it back in 8 KB pages, and print what the
// asymmetric interface cost in (virtual) time.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"sdf/internal/core"
	"sdf/internal/sim"
)

func main() {
	// Everything happens in virtual time on a simulation environment.
	env := sim.NewEnv()

	// A small SDF card: the production geometry is 44 channels with
	// 2 GB-scale planes; we shrink the per-plane block count so the
	// example starts instantly, keeping all timing parameters.
	cfg := core.DefaultConfig()
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.RetainData = true // store real bytes
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SDF device: %d channels, %d MiB write/erase unit, %d KiB read unit\n",
		dev.Channels(), dev.BlockSize()>>20, dev.PageSize()>>10)
	fmt.Printf("usable capacity: %.1f GiB of %.1f GiB raw (%.1f%%)\n",
		float64(dev.Capacity())/(1<<30), float64(dev.RawCapacity())/(1<<30),
		100*float64(dev.Capacity())/float64(dev.RawCapacity()))

	main := env.Go("quickstart", func(p *sim.Proc) {
		payload := make([]byte, dev.BlockSize())
		rand.New(rand.NewSource(1)).Read(payload)

		// The SDF contract: erase before write, whole blocks only.
		const channel, lbn = 7, 0
		start := env.Now()
		if err := dev.Erase(p, channel, lbn); err != nil {
			log.Fatal(err)
		}
		eraseTime := env.Now() - start

		start = env.Now()
		if err := dev.Write(p, channel, lbn, payload); err != nil {
			log.Fatal(err)
		}
		writeTime := env.Now() - start

		// Reads are page-granular and can address any part of the block.
		start = env.Now()
		page, err := dev.Read(p, channel, lbn, 3*dev.PageSize(), dev.PageSize())
		if err != nil {
			log.Fatal(err)
		}
		readTime := env.Now() - start

		if !bytes.Equal(page, payload[3*dev.PageSize():4*dev.PageSize()]) {
			log.Fatal("read-back mismatch")
		}
		fmt.Printf("erase 8 MiB block: %v\n", eraseTime)
		fmt.Printf("write 8 MiB block: %v (%.1f MB/s per channel)\n",
			writeTime, float64(dev.BlockSize())/writeTime.Seconds()/1e6)
		fmt.Printf("read one 8 KiB page: %v\n", readTime)

		// The device's parallelism lives across channels: writing the
		// same block on every channel at once takes the same time as
		// one write.
		start = env.Now()
		var workers []*sim.Proc
		for ch := 0; ch < dev.Channels(); ch++ {
			w := env.Go("writer", func(wp *sim.Proc) {
				if err := dev.EraseWrite(wp, ch, 1, payload); err != nil {
					log.Fatal(err)
				}
			})
			workers = append(workers, w)
		}
		for _, w := range workers {
			p.Join(w)
		}
		elapsed := env.Now() - start
		total := dev.Channels() * dev.BlockSize()
		fmt.Printf("44 channels in parallel: %d MiB in %v (%.2f GB/s)\n",
			total>>20, elapsed.Round(1_000_000), float64(total)/elapsed.Seconds()/1e9)
	})
	env.RunUntilDone(main)
	env.Close()
}
