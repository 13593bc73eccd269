package blocklayer_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/flashchan"
	"sdf/internal/sim"
)

// TestReadRetryUnderECCBurst drives reads into and past a transient
// ECC burst and pins the degraded-mode counters: a read inside the
// burst retries (not fail fast) until its three attempts are spent,
// the three consecutive failures quarantine the channel, and a read
// after the burst lapses returns the data intact.
func TestReadRetryUnderECCBurst(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.Channels = 2
	cfg.Channel.Nand.BlocksPerPlane = 8
	cfg.Channel.Nand.PagesPerBlock = 4
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	cfg.Channel.ECC = true
	dev, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := blocklayer.New(env, dev, blocklayer.DefaultConfig())

	data := make([]byte, l.BlockSize())
	rand.New(rand.NewSource(9)).Read(data)
	writer := env.Go("t/write", func(p *sim.Proc) {
		// ID 0 places on channel 0, the burst target.
		if _, err := l.Write(p, 0, data); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(writer)
	// Drain the background erasers so the channel is idle: the read
	// must meet the burst at the media, not queue past it.
	env.Run()

	inj := fault.NewInjector(env)
	fault.AttachDevice(inj, "sdf0", dev)
	// Injection instants are relative to the arm time.
	const burst = 10 * time.Millisecond
	burstAt := env.Now() + time.Millisecond
	pl := &fault.Plan{Seed: 9, Injections: []fault.Injection{
		{At: time.Millisecond, Kind: fault.ECCBurst, Target: "sdf0/chan0", Rate: 1e-2, Duration: burst},
	}}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(pl); err != nil {
		t.Fatal(err)
	}

	reader := env.Go("t/read", func(p *sim.Proc) {
		// Land one page read just inside the burst: every attempt meets
		// the boosted bit-error rate.
		p.Wait(burstAt + 50*time.Microsecond - env.Now())
		if _, err := l.Read(p, 0, 0, l.PageSize()); !errors.Is(err, flashchan.ErrUncorrectable) {
			t.Errorf("read under burst: %v, want ErrUncorrectable", err)
		}
		if end := burstAt + burst; env.Now() >= end {
			t.Errorf("retries ran to %v, past the burst's end %v", env.Now(), end)
		}
		p.Wait(burstAt + burst + time.Millisecond - env.Now())
		got, err := l.Read(p, 0, 0, l.BlockSize())
		if err != nil {
			t.Errorf("read after burst: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("read after burst returned wrong bytes")
		}
	})
	env.RunUntilDone(reader)
	env.Run()

	quarantines, readRetries, _ := l.HealthStats()
	if readRetries != 2 {
		t.Errorf("readRetries = %d, want 2 (the burst must exhaust the retries)", readRetries)
	}
	if quarantines != 1 {
		t.Errorf("quarantines = %d, want 1 (three consecutive failures must quarantine)", quarantines)
	}
}
