package nand

import (
	"errors"
	"testing"
	"time"

	"sdf/internal/sim"
)

// plParams is a one-plane data-mode chip with error injection off, so
// the power-loss tests see only crash damage.
func plParams() Params {
	p := MLC25nm()
	p.BlocksPerPlane = 4
	p.PagesPerBlock = 4
	p.Planes = 1
	p.RetainData = true
	p.BaseBER = 0
	p.WearBER = 0
	p.Seed = 1
	return p
}

// TestPowerLossTearsProgram cuts power inside a program pulse: the
// page must come back occupied but unreadable (torn), and the tear
// must survive a remount.
func TestPowerLossTearsProgram(t *testing.T) {
	params := plParams()
	env := sim.NewEnv()
	chip := New(env, params)
	pl := chip.Plane(0)
	data := make([]byte, params.PageSize)
	var progErr error
	env.Go("t", func(p *sim.Proc) {
		if err := pl.Erase(p, 0); err != nil {
			t.Error(err)
			return
		}
		// The pulse spans [TErase, TErase+TProg); the cut lands inside.
		progErr = pl.ProgramOOB(p, 0, 0, data, []byte{1, 2, 3})
	})
	env.Schedule(params.TErase+params.TProg/2, chip.PowerOff)
	env.Run()
	if !errors.Is(progErr, ErrPowerLoss) {
		t.Fatalf("program under power loss: %v, want ErrPowerLoss", progErr)
	}
	if pl.WritePtr(0) != 1 {
		t.Fatalf("writePtr = %d, want 1 (torn page occupies its slot)", pl.WritePtr(0))
	}
	if !pl.Torn(0, 0) {
		t.Fatal("page not marked torn")
	}
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	chip2, err := Mount(env2, params, chip.Media())
	if err != nil {
		t.Fatal(err)
	}
	pl2 := chip2.Plane(0)
	if !pl2.Torn(0, 0) {
		t.Fatal("tear lost across remount")
	}
	if pl2.Spare(0, 0) != nil {
		t.Fatal("torn page retained its spare")
	}
	r := env2.Go("t", func(p *sim.Proc) {
		if _, err := pl2.ReadPage(p, 0, 0); !errors.Is(err, ErrTornPage) {
			t.Errorf("read of torn page: %v, want ErrTornPage", err)
		}
	})
	env2.RunUntilDone(r)
}

// TestPowerLossQueuedProgramLeavesNoTrace queues programs to two
// blocks on one plane and cuts power inside the first pulse: the
// first page tears, but the second pulse never started and must leave
// its block untouched.
func TestPowerLossQueuedProgramLeavesNoTrace(t *testing.T) {
	params := plParams()
	env := sim.NewEnv()
	defer env.Close()
	chip := New(env, params)
	pl := chip.Plane(0)
	data := make([]byte, params.PageSize)
	prep := env.Go("prep", func(p *sim.Proc) {
		for b := 0; b < 2; b++ {
			if err := pl.Erase(p, b); err != nil {
				t.Error(err)
			}
		}
	})
	env.RunUntilDone(prep)
	var err0, err1 error
	env.Go("w0", func(p *sim.Proc) { err0 = pl.ProgramOOB(p, 0, 0, data, nil) })
	env.Go("w1", func(p *sim.Proc) { err1 = pl.ProgramOOB(p, 1, 0, data, nil) })
	env.Schedule(params.TProg/2, chip.PowerOff)
	env.Run()
	if !errors.Is(err0, ErrPowerLoss) || !errors.Is(err1, ErrPowerLoss) {
		t.Fatalf("programs under power loss: %v, %v, want ErrPowerLoss", err0, err1)
	}
	if pl.WritePtr(0) != 1 || !pl.Torn(0, 0) {
		t.Fatalf("block 0: writePtr=%d torn=%v, want a torn page", pl.WritePtr(0), pl.Torn(0, 0))
	}
	if pl.WritePtr(1) != 0 || pl.Torn(1, 0) {
		t.Fatalf("block 1: writePtr=%d torn=%v, want untouched (pulse never started)", pl.WritePtr(1), pl.Torn(1, 0))
	}
}

// TestPowerLossInterruptsErase cuts power inside an erase pulse: wear
// is charged, retained pages are gone, the block needs a fresh erase,
// and the interruption is counted for the recovery scan.
func TestPowerLossInterruptsErase(t *testing.T) {
	params := plParams()
	env := sim.NewEnv()
	chip := New(env, params)
	pl := chip.Plane(0)
	data := make([]byte, params.PageSize)
	prep := env.Go("prep", func(p *sim.Proc) {
		if err := pl.Erase(p, 0); err != nil {
			t.Error(err)
			return
		}
		if err := pl.Program(p, 0, 0, data); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(prep)
	wearBefore := pl.EraseCount(0)
	var eraseErr error
	env.Go("e", func(p *sim.Proc) { eraseErr = pl.Erase(p, 0) })
	env.Schedule(params.TErase/2, chip.PowerOff)
	env.Run()
	if !errors.Is(eraseErr, ErrPowerLoss) {
		t.Fatalf("erase under power loss: %v, want ErrPowerLoss", eraseErr)
	}
	if pl.WritePtr(0) != -1 {
		t.Fatalf("writePtr = %d, want -1 (partially erased)", pl.WritePtr(0))
	}
	if pl.EraseCount(0) != wearBefore+1 {
		t.Fatalf("eraseCount = %d, want %d (partial pulse still wears)", pl.EraseCount(0), wearBefore+1)
	}
	if pl.InterruptedErases() != 1 {
		t.Fatalf("interruptedErases = %d, want 1", pl.InterruptedErases())
	}
	env.Close()

	// A fresh erase after remount restores the block to service.
	env2 := sim.NewEnv()
	defer env2.Close()
	chip2, err := Mount(env2, params, chip.Media())
	if err != nil {
		t.Fatal(err)
	}
	pl2 := chip2.Plane(0)
	w := env2.Go("t", func(p *sim.Proc) {
		if err := pl2.Erase(p, 0); err != nil {
			t.Error(err)
			return
		}
		if err := pl2.Program(p, 0, 0, data); err != nil {
			t.Error(err)
		}
	})
	env2.RunUntilDone(w)
	if pl2.WritePtr(0) != 1 {
		t.Fatalf("writePtr after re-erase = %d, want 1", pl2.WritePtr(0))
	}
}

// TestPowerOffRejectsCommands verifies a dead chip fails every
// command with ErrPowerLoss, instantly and without mutating media.
func TestPowerOffRejectsCommands(t *testing.T) {
	params := plParams()
	env := sim.NewEnv()
	defer env.Close()
	chip := New(env, params)
	pl := chip.Plane(0)
	chip.PowerOff()
	if !chip.PoweredOff() {
		t.Fatal("PoweredOff() = false after PowerOff")
	}
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		if err := pl.Erase(p, 0); !errors.Is(err, ErrPowerLoss) {
			t.Errorf("erase on dead chip: %v", err)
		}
		if err := pl.Program(p, 0, 0, nil); !errors.Is(err, ErrPowerLoss) {
			t.Errorf("program on dead chip: %v", err)
		}
		if _, err := pl.ReadPage(p, 0, 0); !errors.Is(err, ErrPowerLoss) {
			t.Errorf("read on dead chip: %v", err)
		}
		if env.Now() != start {
			t.Errorf("dead-chip commands consumed %v of virtual time", env.Now()-start)
		}
	})
	env.RunUntilDone(w)
}

// TestMountGeometryMismatch rejects media mounted under different
// parameters — silently reinterpreting pages would corrupt recovery.
func TestMountGeometryMismatch(t *testing.T) {
	params := plParams()
	env := sim.NewEnv()
	defer env.Close()
	chip := New(env, params)
	bad := params
	bad.PagesPerBlock *= 2
	if _, err := Mount(env, bad, chip.Media()); err == nil {
		t.Fatal("mount with mismatched geometry succeeded")
	}
}

// TestSettleProgramCutRule pins the power-cut rule for one program
// pulse at its boundaries: ended at or before the cut — programmed;
// straddling it — torn; begun at or after it — no trace.
func TestSettleProgramCutRule(t *testing.T) {
	params := plParams()
	cut := 10 * params.TProg
	for _, tc := range []struct {
		name     string
		start    time.Duration
		writePtr int
		torn     bool
		lost     bool
	}{
		{"ended before the cut", cut - params.TProg - 1, 1, false, false},
		{"ended at the cut", cut - params.TProg, 1, false, false},
		{"one ns short of ending", cut - params.TProg + 1, 1, true, true},
		{"one ns into the pulse", cut - 1, 1, true, true},
		{"would begin at the cut", cut, 0, false, true},
		{"would begin after the cut", cut + 1, 0, false, true},
	} {
		env := sim.NewEnv()
		chip := New(env, params)
		pl := chip.Plane(0)
		done := env.Go("t", func(p *sim.Proc) {
			if err := pl.Erase(p, 0); err != nil {
				t.Error(err)
			}
		})
		env.RunUntilDone(done)
		env.Schedule(cut-env.Now(), chip.PowerOff)
		env.Run()
		err := pl.SettleProgram(0, 0, tc.start, make([]byte, params.PageSize), []byte{7})
		if errors.Is(err, ErrPowerLoss) != tc.lost || (err == nil) == tc.lost {
			t.Errorf("%s: error %v, want power loss %v", tc.name, err, tc.lost)
		}
		if pl.WritePtr(0) != tc.writePtr || pl.Torn(0, 0) != tc.torn {
			t.Errorf("%s: writePtr %d torn %v, want %d %v", tc.name, pl.WritePtr(0), pl.Torn(0, 0), tc.writePtr, tc.torn)
		}
		if kept := pl.Spare(0, 0) != nil; kept != (!tc.lost) {
			t.Errorf("%s: spare retained %v, want %v", tc.name, kept, !tc.lost)
		}
		env.Close()
	}
}

// TestSettleEraseCutRule pins the power-cut rule for an erase pulse
// settled at its end, on a block holding two programmed pages: with the
// power still on, the pulse erased the block; if the cut came during the
// pulse — at its very end included, when the cut is dispatched first —
// it left the block partially erased (wear charged, pages gone, a fresh
// erase needed); and a pulse beginning at or after the cut left no trace.
func TestSettleEraseCutRule(t *testing.T) {
	params := plParams()
	te := params.TErase
	for _, tc := range []struct {
		name        string
		start       time.Duration // the pulse's start, relative to the cut
		wear        int           // erase count after it
		writePtr    int
		interrupted int
		err         error
	}{
		{"ended before the cut", -te - 1, 2, 0, 0, nil},
		{"ended at the cut", -te, 2, -1, 1, ErrPowerLoss},
		{"cut one ns before its end", -te + 1, 2, -1, 1, ErrPowerLoss},
		{"cut one ns after its start", -1, 2, -1, 1, ErrPowerLoss},
		{"begins at the cut", 0, 1, 2, 0, ErrPowerLoss},
		{"begins after the cut", 1, 1, 2, 0, ErrPowerLoss},
	} {
		env := sim.NewEnv()
		chip := New(env, params)
		pl := chip.Plane(0)
		data := make([]byte, params.PageSize)
		prep := env.Go("prep", func(p *sim.Proc) {
			if err := pl.Erase(p, 0); err != nil {
				t.Error(err)
			}
			for pg := 0; pg < 2; pg++ {
				if err := pl.Program(p, 0, pg, data); err != nil {
					t.Error(err)
				}
			}
		})
		env.RunUntilDone(prep)
		now := env.Now()
		cut := now + 2*te
		env.Schedule(cut-now, chip.PowerOff)
		var err error
		env.Schedule(cut+tc.start+te-now, func() { err = pl.SettleErase(0, cut+tc.start) })
		_, _, erasesBefore := chip.Counters()
		env.Run()
		_, _, erases := chip.Counters()
		if (err == nil) != (tc.err == nil) || !errors.Is(err, tc.err) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.err)
		}
		if pl.EraseCount(0) != tc.wear || pl.WritePtr(0) != tc.writePtr || pl.InterruptedErases() != tc.interrupted {
			t.Errorf("%s: erase count %d, write pointer %d, interrupted erases %d; want %d, %d, %d", tc.name,
				pl.EraseCount(0), pl.WritePtr(0), pl.InterruptedErases(), tc.wear, tc.writePtr, tc.interrupted)
		}
		if completed := tc.err == nil; (erases-erasesBefore == 1) != completed {
			t.Errorf("%s: chip counted %d erases, completed %v", tc.name, erases-erasesBefore, completed)
		}
		if _, retained := pl.m.data[pl.pageIndex(0, 0)]; retained != (tc.writePtr == 2) {
			t.Errorf("%s: page 0 payload retained %v", tc.name, retained)
		}
		env.Close()
	}
}
