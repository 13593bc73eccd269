package coord

import (
	"testing"
	"time"

	"sdf/internal/sim"
)

// TestAdmissionBurstThenThrottle: the bucket admits its burst of 4
// writes back-to-back, then a lone writer settles into one delay per
// token interval — its own park time refills the bucket, so it is
// paced, never shed.
func TestAdmissionBurstThenThrottle(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	// 250 writes/s -> one token per 4 ms, inside the 5 ms delay cap.
	a := NewAdmission(env, AdmissionConfig{Rate: 250}, nil)
	var verdicts []Verdict
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			verdicts = append(verdicts, a.Admit(p))
		}
	})
	env.Run()
	want := []Verdict{Admitted, Admitted, Admitted, Admitted, Delayed, Delayed, Delayed}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Fatalf("verdicts = %v, want %v", verdicts, want)
		}
	}
	// Three 4 ms delays: the writer is paced at exactly Rate.
	if got, want := env.Now(), 12*time.Millisecond; got != want {
		t.Errorf("writer finished at %v, want %v (paced at Rate)", got, want)
	}
	st := a.Stats()
	if st.Admitted != 4 || st.Delayed != 3 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 4 admitted / 3 delayed / 0 shed", st)
	}
}

// TestAdmissionConcurrentShed: concurrent writers reserve tokens in
// arrival order; the one whose queued wait prices past the 5 ms cap is
// shed.
func TestAdmissionConcurrentShed(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	// One token per 4 ms: the fifth writer waits 4 ms, the sixth 8 ms.
	a := NewAdmission(env, AdmissionConfig{Rate: 250}, nil)
	verdicts := make([]Verdict, 6)
	for i := range verdicts {
		i := i
		env.Go("writer", func(p *sim.Proc) { verdicts[i] = a.Admit(p) })
	}
	env.Run()
	want := []Verdict{Admitted, Admitted, Admitted, Admitted, Delayed, Shed}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Fatalf("verdicts = %v, want %v (arrival-order reservation)", verdicts, want)
		}
	}
}

// TestAdmissionBurnThrottles: an overspent error budget scales the
// admitted rate down as 1/burn, floored at a tenth of Rate.
func TestAdmissionBurnThrottles(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	burn := 1.0
	a := NewAdmission(env, AdmissionConfig{Rate: 1000}, func() float64 { return burn })
	var gaps []time.Duration
	admit := func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			before := env.Now()
			a.Admit(p)
			gaps = append(gaps, env.Now()-before)
		}
	}
	env.Go("writer", func(p *sim.Proc) {
		admit(p, 6)
		p.Wait(40 * time.Millisecond) // let the bucket settle to full
		burn = 4                      // budget overspent: rate drops to 250/s
		admit(p, 6)
		p.Wait(60 * time.Millisecond) // full again, even at the floored rate
		burn = 20                     // 1/20 is below the floor: rate holds at 100/s
		admit(p, 5)
	})
	env.Run()
	ms := time.Millisecond
	want := []time.Duration{
		0, 0, 0, 0, ms, ms, // within budget: 1 ms per token after the burst
		0, 0, 0, 0, 4 * ms, 4 * ms, // burn 4: 4 ms per token
		0, 0, 0, 0, 0, // floored: the next token is 10 ms out, past the cap, so shed
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
	if st := a.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1 (the floored rate prices the fifth write at 10 ms)", st.Shed)
	}
}

// TestAdmissionBestEffort: best-effort mode admits everything without
// touching the bucket.
func TestAdmissionBestEffort(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	a := NewAdmission(env, AdmissionConfig{Rate: 1}, nil)
	a.SetBestEffort(true)
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if v := a.Admit(p); v != Admitted {
				t.Errorf("best-effort verdict = %v, want Admitted", v)
			}
		}
		if env.Now() != 0 {
			t.Error("best-effort admission parked")
		}
	})
	env.Run()
	if st := a.Stats(); st.Admitted != 10 || st.Delayed != 0 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 10 admitted only", st)
	}
}
