package ssd

import (
	"math/rand"
	"testing"
	"time"

	"sdf/internal/sim"
)

// checkInvariants validates the FTL's internal consistency:
//   - every mapped lpn points at a programmed page whose reverse entry
//     agrees;
//   - per-block valid counts equal the number of mapping-confirmed
//     reverse entries;
//   - no block is both in the free pool and open;
//   - free-pool entries are unique.
func checkInvariants(t *testing.T, s *SSD) {
	t.Helper()
	type key struct{ ch, pl, b int }
	validCount := make(map[key]int32)
	for lpn, l := range s.mapping {
		if l == unmapped {
			continue
		}
		ch, pl, b, pg := unpackLoc(l)
		pf := s.channels[ch].planes[pl]
		if pf.rev[b][pg] != int64(lpn) {
			t.Fatalf("lpn %d maps to (%d,%d,%d,%d) but reverse entry is %d",
				lpn, ch, pl, b, pg, pf.rev[b][pg])
		}
		if wp := pf.plane.WritePtr(b); wp >= 0 && pg >= wp {
			t.Fatalf("lpn %d maps past the write pointer (%d >= %d)", lpn, pg, wp)
		}
		validCount[key{ch, pl, b}]++
	}
	for c, ch := range s.channels {
		for pi, pf := range ch.planes {
			seen := make(map[int]bool)
			for _, b := range pf.free {
				if seen[b] {
					t.Fatalf("ch%d.p%d: block %d twice in the free pool", c, pi, b)
				}
				seen[b] = true
				if !pf.pooled[b] {
					t.Fatalf("ch%d.p%d: block %d in pool but not flagged", c, pi, b)
				}
				if b == pf.hostOpen || b == pf.gcOpen {
					t.Fatalf("ch%d.p%d: open block %d in the free pool", c, pi, b)
				}
			}
			for b := 0; b < pf.plane.Blocks(); b++ {
				if pf.pooled[b] && !seen[b] {
					t.Fatalf("ch%d.p%d: block %d flagged pooled but absent", c, pi, b)
				}
				if got := validCount[key{c, pi, b}]; pf.valid[b] != got {
					t.Fatalf("ch%d.p%d block %d: valid=%d, mapping says %d",
						c, pi, b, pf.valid[b], got)
				}
			}
		}
	}
}

func TestFTLInvariantsUnderRandomTraffic(t *testing.T) {
	prof := Intel320(0.20).ScaleBlocks(16)
	prof.BufferBytes = 0
	prof.StaticWL = false
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pageSize := int64(s.PageSize())
	slots := s.Capacity() / pageSize
	w := env.Go("driver", func(p *sim.Proc) {
		for op := 0; op < 4000; op++ {
			off := rng.Int63n(slots) * pageSize
			switch rng.Intn(10) {
			case 0:
				n := 1 + rng.Int63n(4)
				if off+n*pageSize > s.Capacity() {
					n = 1
				}
				if err := s.Trim(p, off, n*pageSize); err != nil {
					t.Error(err)
					return
				}
			case 1, 2:
				if err := s.Read(p, off, pageSize); err != nil {
					t.Error(err)
					return
				}
			default:
				if err := s.Write(p, off, pageSize); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	env.RunUntilDone(w)
	checkInvariants(t, s)
	env.Close()
}

func TestFTLInvariantsAfterWarmFillRandom(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFillRandom(1.0, 3); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s)
	env.Close()
}

func TestFTLInvariantsAfterGCChurn(t *testing.T) {
	prof := Intel320(0.10).ScaleBlocks(16)
	prof.BufferBytes = 0
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFillRandom(1.0, 21); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	pageSize := int64(s.PageSize())
	slots := s.Capacity() / pageSize
	w := env.Go("driver", func(p *sim.Proc) {
		for op := 0; op < 5000; op++ {
			off := rng.Int63n(slots) * pageSize
			if err := s.Write(p, off, pageSize); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	if s.Stats().GCMovedPages == 0 {
		t.Fatal("GC never ran; churn test ineffective")
	}
	if lo, hi := s.Wear(); hi == 0 || lo > hi {
		t.Fatalf("Wear = %d..%d after GC churn, want a non-empty range of erase counts", lo, hi)
	}
	checkInvariants(t, s)
	env.Close()
}

// TestDegradedWritesRedirect drives the Gen3 write path after
// DegradeChannel: pages placed on a dead data channel, some of them
// written before it died, land on a live channel, enough of them to
// emit the group's parity pages; every one reads back without
// reconstruction, and the FTL stays consistent. With every channel
// down, a write still returns.
func TestDegradedWritesRedirect(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	env := sim.NewEnv()
	defer env.Close()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	// pre pages are written before the channel dies, then all pages
	// after, twice: fewer than a block per plane, and parity ticks.
	const dead, pre, pages = 0, 5, 25
	pageSize := int64(s.PageSize())
	var lpns []int64
	for lpn := int64(0); len(lpns) < pages; lpn++ {
		if s.placement(lpn) == dead {
			lpns = append(lpns, lpn)
		}
	}
	drain := func(p *sim.Proc) {
		for s.buffer.depth() > 0 {
			p.Wait(time.Millisecond)
		}
	}
	write := func(p *sim.Proc, lpns []int64) bool {
		for _, lpn := range lpns {
			if err := s.Write(p, lpn*pageSize, pageSize); err != nil {
				t.Error(err)
				return false
			}
		}
		drain(p)
		return true
	}
	readBack := func(p *sim.Proc) {
		for _, lpn := range lpns {
			l := s.mapping[lpn]
			if ch, _, _, _ := unpackLoc(l); l == unmapped || s.channelDegraded(ch) {
				t.Errorf("lpn %d maps to %x, not a live channel", lpn, l)
			}
			if err := s.Read(p, lpn*pageSize, pageSize); err != nil {
				t.Error(err)
			}
		}
		if n := s.Stats().RebuiltPages; n != 0 {
			t.Errorf("%d pages reconstructed reading redirected writes, want 0", n)
		}
	}
	w := env.Go("driver", func(p *sim.Proc) {
		if !write(p, lpns[:pre]) {
			return
		}
		s.DegradeChannel(dead)
		parity := s.Stats().ParityPages
		if !write(p, lpns) {
			return
		}
		want := int64((pre+pages)/prof.ParityRatio - pre/prof.ParityRatio)
		if got := s.Stats().ParityPages - parity; got != want {
			t.Errorf("%d parity pages for %d redirected writes, want %d", got, pages, want)
		}
		readBack(p)
		// With the group's parity channel down too, data and parity
		// both go to a live data channel of the group.
		s.DegradeChannel(s.parityCh[s.parityGroup(dead)])
		if write(p, lpns) {
			readBack(p)
		}
	})
	env.RunUntilDone(w)
	checkInvariants(t, s)

	for c := 0; c < s.Channels(); c++ {
		s.DegradeChannel(c)
	}
	w = env.Go("all-down", func(p *sim.Proc) { write(p, lpns[:1]) })
	env.RunUntil(env.Now() + time.Second)
	if !w.Done() {
		t.Fatal("a write with every channel degraded did not return")
	}
	checkInvariants(t, s)
}
