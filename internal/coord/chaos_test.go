package coord

import (
	"math/rand"
	"testing"
	"time"

	"sdf/internal/sim"
)

// TestPoolLowWakesParkedWaiter: a request parked with a deep pool must
// fall through the forced hatch the moment the pool drains to the
// floor — not MaxWait later.
func TestPoolLowWakesParkedWaiter(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := New(env, Config{Window: 50 * time.Millisecond, MaxWait: time.Minute, ForceFreeBlocks: 1})
	m1 := c.Register("r1")
	m2 := c.Register("r2")
	env.Go("hog", func(p *sim.Proc) {
		release, _ := m1.AcquireErase(p, 10)
		p.Wait(40 * time.Millisecond)
		release()
	})
	var forced bool
	var at time.Duration
	env.Go("eraser", func(p *sim.Proc) {
		p.Wait(time.Millisecond)
		// Parked with 5 pre-erased blocks in hand.
		release, f := m2.AcquireErase(p, 5)
		forced, at = f, env.Now()
		release()
	})
	// Foreground writes drain r2's pool while the eraser is parked.
	for i, free := range []int{4, 3, 2, 1} {
		free := free
		env.Schedule(time.Duration(2+i)*time.Millisecond, func() { m2.PoolLow(free) })
	}
	env.Run()
	if !forced {
		t.Fatal("pool drained to the floor but the parked request did not force")
	}
	if want := 5 * time.Millisecond; at != want {
		t.Errorf("forced at %v, want %v (the PoolLow(1) instant)", at, want)
	}
	st := c.Stats()
	if st.Forced != 1 || st.Timeouts != 0 {
		t.Errorf("stats %+v: want one forced erase and no timeouts (urgency, not age)", st)
	}
}

// TestNoOverlapUnderSeededChaos is the integration oracle for the
// coordinator's core invariant: across seeded random erase traffic,
// urgency spikes, and member crash/restart chaos, no two members that
// are both live ever run granted (non-forced) erases concurrently.
// Forced erases are the documented exception — the starvation/urgency
// hatch trades overlap for liveness and is counted, not hidden.
func TestNoOverlapUnderSeededChaos(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c := New(env, Config{Window: time.Millisecond, MaxWait: 5 * time.Millisecond, ForceFreeBlocks: 1})
	const n = 3
	var members [n]*Member
	for i, name := range []string{"r1", "r2", "r3"} {
		members[i] = c.Register(name)
	}
	// granted[i] counts member i's in-flight granted erases for its
	// current life; a kill zeroes it (epoch bump) because a crashed
	// replica's in-flight erase no longer counts against live peers.
	var granted, epoch [n]int
	violations, grantedTotal, forcedTotal := 0, 0, 0
	for i := 0; i < n; i++ {
		i := i
		for w := 0; w < 3; w++ {
			rng := rand.New(rand.NewSource(int64(10*i + w)))
			env.Go("eraser", func(p *sim.Proc) {
				for k := 0; k < 40; k++ {
					p.Wait(time.Duration(rng.Intn(2000)) * time.Microsecond)
					free := 2 + rng.Intn(8)
					if rng.Intn(12) == 0 {
						free = 1 // urgency hatch fires occasionally
					}
					release, forced := members[i].AcquireErase(p, free)
					counted := false
					myEpoch := epoch[i]
					if forced {
						forcedTotal++
					} else if members[i].live {
						granted[i]++
						grantedTotal++
						counted = true
						for j := 0; j < n; j++ {
							if j != i && granted[j] > 0 && members[j].live {
								violations++
							}
						}
					}
					p.Wait(time.Duration(500+rng.Intn(500)) * time.Microsecond)
					if counted && epoch[i] == myEpoch {
						granted[i]--
					}
					release()
				}
			})
		}
	}
	// Seeded crash/restart chaos against the coordinator's liveness
	// view: kills strike mid-window, mid-wait, and mid-drain.
	crng := rand.New(rand.NewSource(99))
	for f := 0; f < 12; f++ {
		k := crng.Intn(n)
		at := time.Duration(crng.Intn(80)) * time.Millisecond
		d := time.Duration(1+crng.Intn(5)) * time.Millisecond
		env.Schedule(at, func() {
			if members[k].live {
				members[k].SetLive(false)
				epoch[k]++
				granted[k] = 0
			}
		})
		env.Schedule(at+d, func() { members[k].SetLive(true) })
	}
	env.Run()
	if violations != 0 {
		t.Errorf("%d overlapping granted erase windows between live members", violations)
	}
	if grantedTotal == 0 || forcedTotal == 0 {
		t.Fatalf("weak chaos run: %d granted, %d forced — both paths must be exercised", grantedTotal, forcedTotal)
	}
	st := c.Stats()
	if st.Grants == 0 || st.Deferrals == 0 || st.Forced == 0 {
		t.Errorf("stats %+v: chaos run should defer, grant, and force", st)
	}
}
