package nand

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sdf/internal/sim"
)

// tinyParams is a small chip for fast tests, data mode on.
func tinyParams() Params {
	return Params{
		PageSize:       512,
		PagesPerBlock:  4,
		BlocksPerPlane: 8,
		Planes:         2,
		TRead:          75 * time.Microsecond,
		TProg:          1400 * time.Microsecond,
		TErase:         3 * time.Millisecond,
		EraseLimit:     50,
		RetainData:     true,
		Seed:           1,
	}
}

// runOp executes fn as a single simulation process and returns after
// the environment drains.
func runOp(t *testing.T, fn func(env *sim.Env, p *sim.Proc)) time.Duration {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	env.Go("test", func(p *sim.Proc) { fn(env, p) })
	env.Run()
	return env.Now()
}

func TestGeometry(t *testing.T) {
	p := MLC25nm()
	if p.BlockBytes() != 2<<20 {
		t.Fatalf("block = %d, want 2 MiB", p.BlockBytes())
	}
	if p.ChipBytes() != 8<<30 {
		t.Fatalf("chip = %d, want 8 GiB", p.ChipBytes())
	}
}

func TestProgramRequiresErase(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		err := pl.Program(p, 0, 0, make([]byte, 512))
		if !errors.Is(err, ErrNotErased) {
			t.Errorf("program without erase: %v, want ErrNotErased", err)
		}
	})
}

func TestProgramSequentialOrder(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := pl.Program(p, 0, 0, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		err := pl.Program(p, 0, 2, make([]byte, 512))
		if !errors.Is(err, ErrOutOfOrder) {
			t.Errorf("out-of-order program: %v, want ErrOutOfOrder", err)
		}
		if err := pl.Program(p, 0, 1, make([]byte, 512)); err != nil {
			t.Errorf("in-order program: %v", err)
		}
	})
}

func TestReadBackRoundTrip(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if err := pl.Erase(p, 3); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0xAB}, 512)
		if err := pl.Program(p, 3, 0, want); err != nil {
			t.Fatal(err)
		}
		got, err := pl.ReadPage(p, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read-back mismatch")
		}
	})
}

func TestReadUnwrittenFails(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if _, err := pl.ReadPage(p, 0, 0); !errors.Is(err, ErrUnwritten) {
			t.Errorf("read unwritten: %v, want ErrUnwritten", err)
		}
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := pl.Program(p, 0, 0, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.ReadPage(p, 0, 1); !errors.Is(err, ErrUnwritten) {
			t.Errorf("read beyond write pointer: %v, want ErrUnwritten", err)
		}
	})
}

func TestEraseClearsData(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := pl.Program(p, 0, 0, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.ReadPage(p, 0, 0); !errors.Is(err, ErrUnwritten) {
			t.Errorf("read after erase: %v, want ErrUnwritten", err)
		}
	})
}

func TestOperationTiming(t *testing.T) {
	elapsed := runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if err := pl.Erase(p, 0); err != nil { // 3 ms
			t.Fatal(err)
		}
		if err := pl.Program(p, 0, 0, make([]byte, 512)); err != nil { // 1.4 ms
			t.Fatal(err)
		}
		if _, err := pl.ReadPage(p, 0, 0); err != nil { // 75 µs
			t.Fatal(err)
		}
	})
	want := 3*time.Millisecond + 1400*time.Microsecond + 75*time.Microsecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestPlanesOperateInParallel(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := New(env, tinyParams())
	for i := 0; i < 2; i++ {
		plane := c.Plane(i)
		env.Go("eraser", func(p *sim.Proc) {
			if err := plane.Erase(p, 0); err != nil {
				t.Error(err)
			}
		})
	}
	env.Run()
	// Two planes erase concurrently: total time is one erase, not two.
	if env.Now() != 3*time.Millisecond {
		t.Fatalf("elapsed = %v, want 3ms (parallel)", env.Now())
	}
}

func TestPlaneSerializesOps(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := New(env, tinyParams())
	pl := c.Plane(0)
	for i := 0; i < 2; i++ {
		blockIdx := i
		env.Go("eraser", func(p *sim.Proc) {
			if err := pl.Erase(p, blockIdx); err != nil {
				t.Error(err)
			}
		})
	}
	env.Run()
	if env.Now() != 6*time.Millisecond {
		t.Fatalf("elapsed = %v, want 6ms (serialized)", env.Now())
	}
}

func TestWearOutTurnsBlockBad(t *testing.T) {
	params := tinyParams()
	params.EraseLimit = 10
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, params)
		pl := c.Plane(0)
		var wornErr error
		for i := 0; i < 100; i++ {
			if err := pl.Erase(p, 0); err != nil {
				wornErr = err
				break
			}
		}
		if !errors.Is(wornErr, ErrWornOut) {
			t.Fatalf("block never wore out: %v", wornErr)
		}
		if !pl.Bad(0) {
			t.Fatal("worn block not marked bad")
		}
		if err := pl.Erase(p, 0); !errors.Is(err, ErrBadBlock) {
			t.Errorf("erase of bad block: %v, want ErrBadBlock", err)
		}
	})
}

// countBitErrors programs an all-zero page, reads it back, and counts
// flipped bits, repeating the read n times (reads are non-destructive).
func countBitErrors(t *testing.T, p *sim.Proc, pl *Plane, reads int) int {
	t.Helper()
	if err := pl.Erase(p, 1); err != nil {
		t.Fatal(err)
	}
	if err := pl.Program(p, 1, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	flips := 0
	for trial := 0; trial < reads; trial++ {
		got, err := pl.ReadPage(p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			for ; b != 0; b &= b - 1 {
				flips++
			}
		}
	}
	return flips
}

func TestNoErrorInjectionWhenBERZero(t *testing.T) {
	params := tinyParams()
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, params)
		if n := countBitErrors(t, p, c.Plane(0), 50); n != 0 {
			t.Fatalf("BER=0 produced %d bit flips", n)
		}
	})
}

func TestErrorInjectionAtBaseBER(t *testing.T) {
	params := tinyParams()
	params.BaseBER = 1e-3 // ~4 flips per 512B read
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, params)
		n := countBitErrors(t, p, c.Plane(0), 100)
		// Expect ~410 flips over 100 reads; allow a wide band.
		if n < 200 || n > 700 {
			t.Fatalf("flips = %d, want ~410", n)
		}
	})
}

func TestErrorInjectionGrowsWithWear(t *testing.T) {
	params := tinyParams()
	params.WearBER = 1e-2
	params.EraseLimit = 1000
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, params)
		pl := c.Plane(0)
		fresh := countBitErrors(t, p, pl, 50)
		for pl.EraseCount(1) < 500 { // wear to half the limit
			if err := pl.Erase(p, 1); err != nil {
				t.Fatal(err)
			}
		}
		worn := countBitErrors(t, p, pl, 50)
		if worn <= fresh {
			t.Fatalf("worn flips %d not greater than fresh flips %d", worn, fresh)
		}
	})
}

func TestAddressValidation(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if _, err := pl.ReadPage(p, 99, 0); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("bad block index: %v", err)
		}
		if err := pl.Erase(p, -1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative block index: %v", err)
		}
		if err := pl.Program(p, 0, 99, nil); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("bad page index: %v", err)
		}
	})
}

func TestCounters(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(0)
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := pl.Program(p, 0, i, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pl.ReadPage(p, 0, 0); err != nil {
			t.Fatal(err)
		}
		r, w, e := c.Counters()
		if r != 1 || w != 3 || e != 1 {
			t.Fatalf("counters = %d/%d/%d, want 1/3/1", r, w, e)
		}
	})
}

func TestTimingOnlyMode(t *testing.T) {
	params := tinyParams()
	params.RetainData = false
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, params)
		pl := c.Plane(0)
		if err := pl.Erase(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := pl.Program(p, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		data, err := pl.ReadPage(p, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if data != nil {
			t.Fatal("timing-only mode returned data")
		}
	})
}

func TestMarkBad(t *testing.T) {
	runOp(t, func(env *sim.Env, p *sim.Proc) {
		c := New(env, tinyParams())
		pl := c.Plane(1)
		pl.MarkBad(5)
		if !pl.Bad(5) || pl.BadBlocks() != 1 {
			t.Fatal("MarkBad did not take effect")
		}
		if err := pl.Erase(p, 5); !errors.Is(err, ErrBadBlock) {
			t.Errorf("erase of marked-bad block: %v", err)
		}
	})
}
