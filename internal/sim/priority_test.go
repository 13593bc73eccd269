package sim

import (
	"testing"
	"time"
)

func TestPriorityResourceOrdersByPriority(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var order []string
	hold := func(name string, prio int, arrive time.Duration) {
		e.Go(name, func(p *Proc) {
			p.Wait(arrive)
			r.AcquirePrio(p, prio)
			order = append(order, name)
			p.Wait(10 * time.Millisecond)
			r.Release()
		})
	}
	hold("first", 1, 0)                  // holds the resource
	hold("low-a", 1, time.Millisecond)   // queues at prio 1
	hold("low-b", 1, 2*time.Millisecond) // queues at prio 1
	hold("high", 0, 3*time.Millisecond)  // arrives last, overtakes
	e.Run()
	want := []string{"first", "high", "low-a", "low-b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityResourceFIFOWithinClass(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Wait(time.Duration(i) * time.Microsecond)
			r.AcquirePrio(p, 0)
			order = append(order, i)
			p.Wait(time.Millisecond)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestPriorityResourceNonPreemptive(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var lowDone, highDone time.Duration
	e.Go("low", func(p *Proc) {
		r.AcquirePrio(p, 1)
		p.Wait(100 * time.Millisecond)
		r.Release()
		lowDone = e.Now()
	})
	e.Go("high", func(p *Proc) {
		p.Wait(time.Millisecond)
		r.AcquirePrio(p, 0)
		p.Wait(time.Millisecond)
		r.Release()
		highDone = e.Now()
	})
	e.Run()
	// The low-priority holder finishes its service; high runs after.
	if lowDone != 100*time.Millisecond {
		t.Fatalf("low done at %v", lowDone)
	}
	if highDone != 101*time.Millisecond {
		t.Fatalf("high done at %v, want 101ms", highDone)
	}
}

func TestPriorityResourceCapacity(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 2)
	done := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			r.AcquirePrio(p, 0)
			p.Wait(10 * time.Millisecond)
			r.Release()
			done++
		})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want 20ms", e.Now())
	}
}

func TestPriorityResourceIdleAndWaiting(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	if !r.Idle() {
		t.Fatal("fresh resource not idle")
	}
	e.Go("holder", func(p *Proc) {
		r.AcquirePrio(p, 0)
		p.Wait(10 * time.Millisecond)
		if r.Waiting() != 1 {
			t.Errorf("Waiting = %d, want 1", r.Waiting())
		}
		r.Release()
	})
	e.Go("waiter", func(p *Proc) {
		p.Wait(time.Millisecond)
		r.AcquirePrio(p, 0)
		r.Release()
	})
	e.Run()
	if !r.Idle() {
		t.Fatal("resource not idle after drain")
	}
}
