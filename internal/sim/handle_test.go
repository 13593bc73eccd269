package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The tests in this file pin callback handles (Env.Handle) and StartAt
// to the slots of the processes they replace.

// opKind is one step of a differential-test actor.
type opKind int

const (
	opWait  opKind = iota // a timed wait
	opTie                 // a zero wait: a same-instant tie
	opSig                 // await a signal
	opXfer                // a SharedLink transfer
	opClaim               // occupy a Timeline slot
)

type actorOp struct {
	kind opKind
	d    time.Duration // opWait's delay, opClaim's hold
	k    int           // opSig's signal, opXfer's link, opClaim's timeline
	n    int           // opXfer's bytes
	fire int           // signal to fire once the step completes, or -1
}

// dispatch is one entry of the differential log: a step of an actor
// completing, and the instant it did. The log is in dispatch order.
// (Events() is compared at the end of a run, not per entry: a batched
// grant counts all its wakes when it is popped, so a wake that has its
// own event in one run and shares a grant in the other is counted at a
// different moment with the same total.)
type dispatch struct {
	at    time.Duration
	actor int
	pc    int
}

// diffWorld is one run of a random program: signals, shared links and
// timelines, and actors stepping through their scripts.
type diffWorld struct {
	env     *Env
	sigs    []Signal
	links   []*SharedLink
	tls     []*Timeline
	log     []dispatch
	handles int
}

type diffActor struct {
	w   *diffWorld
	id  int
	ops []actorOp
	pc  int
	h   Proc
	x   *Xfer // the handle's transfer in flight
}

// genProgram draws a program: per actor a script of steps. A claim
// comes first or, rarely, mid-script; an actor with a mid-script claim
// stays a process in both runs.
func genProgram(rng *rand.Rand, nSigs int) [][]actorOp {
	actors := make([][]actorOp, 3+rng.Intn(8))
	for a := range actors {
		ops := make([]actorOp, 1+rng.Intn(10))
		for i := range ops {
			op := actorOp{fire: -1}
			switch r := rng.Intn(10); {
			case i == 0 && r < 3, r == 9 && rng.Intn(3) == 0:
				op.kind, op.k, op.d = opClaim, rng.Intn(2), time.Duration(rng.Intn(3))*time.Microsecond
			case r < 3:
				op.kind, op.d = opWait, time.Duration(rng.Intn(3))*time.Microsecond
			case r < 4:
				op.kind = opTie
			case r < 7:
				op.kind, op.k = opSig, rng.Intn(nSigs)
			default:
				op.kind, op.k, op.n = opXfer, rng.Intn(2), 1000*(1+rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				op.fire = rng.Intn(nSigs)
			}
			ops[i] = op
		}
		actors[a] = ops
	}
	return actors
}

// runProgram runs the program once. With handles, an actor with no
// claim runs as a callback handle, one whose only claim comes first
// claims its slot in an event and starts a process at the slot's end
// (StartAt), and the rest are processes; without, every actor is a
// process.
func runProgram(seed int64, program [][]actorOp, nSigs int, handles bool) *diffWorld {
	env := NewEnv()
	defer env.Close()
	w := &diffWorld{env: env, sigs: make([]Signal, nSigs)}
	for i := 0; i < 2; i++ {
		w.links = append(w.links, NewSharedLink(env, 1e9))
		w.tls = append(w.tls, NewTimeline(env, 1+i))
	}
	// Timers fire the signals nobody fires, at instants that tie with
	// the actors' own steps.
	rng := rand.New(rand.NewSource(seed))
	for k := range w.sigs {
		env.Schedule(time.Duration(rng.Intn(40))*time.Microsecond, func() { w.sigs[k].Fire() })
	}
	for id, ops := range program {
		a := &diffActor{w: w, id: id, ops: ops}
		claims := 0
		for _, op := range ops {
			if op.kind == opClaim {
				claims++
			}
		}
		switch {
		case !handles || claims > 1 || claims == 1 && ops[0].kind != opClaim:
			env.Go("actor", a.runProc)
		case claims == 1:
			w.handles++
			env.Schedule(0, a.claimThenStart)
		default:
			w.handles++
			env.Handle(&a.h, a.step)
			env.Wake(&a.h, 0)
		}
	}
	env.Run()
	return w
}

// done records step pc-1 completing and performs its action.
func (a *diffActor) done() {
	w := a.w
	w.log = append(w.log, dispatch{w.env.Now(), a.id, a.pc - 1})
	if f := a.ops[a.pc-1].fire; f >= 0 {
		w.sigs[f].Fire()
	}
}

// runProc is the actor as a process: every step parks.
func (a *diffActor) runProc(p *Proc) {
	w := a.w
	for a.pc < len(a.ops) {
		op := a.ops[a.pc]
		a.pc++
		switch op.kind {
		case opWait:
			p.Wait(op.d)
		case opTie:
			p.Wait(0)
		case opSig:
			p.Await(&w.sigs[op.k])
		case opXfer:
			w.links[op.k].Transfer(p, op.n)
		case opClaim:
			w.tls[op.k].Occupy(p, op.d)
		}
		a.done()
	}
}

// claimThenStart is a first-step claim without a process: it takes
// the slot and starts the process that runs the rest at its end.
func (a *diffActor) claimThenStart() {
	op := a.ops[0]
	a.pc = 1
	_, end := a.w.tls[op.k].Reserve(op.d)
	a.w.env.StartAt(new(Proc), end, "actor", func(p *Proc) {
		a.done()
		a.runProc(p)
	})
}

// step is the actor as a callback handle: it runs where the process
// would have started or resumed, completes the step it waited on, and
// enrolls for the next.
func (a *diffActor) step() {
	w := a.w
	if a.pc > 0 {
		if a.x != nil {
			w.links[a.ops[a.pc-1].k].Collect(a.x)
			a.x = nil
		}
		a.done()
	}
	for a.pc < len(a.ops) {
		op := a.ops[a.pc]
		a.pc++
		switch op.kind {
		case opWait:
			w.env.Wake(&a.h, op.d)
			return
		case opTie:
			w.env.Wake(&a.h, 0)
			return
		case opSig:
			if w.sigs[op.k].Enroll(&a.h) {
				return
			}
		case opXfer:
			l := w.links[op.k]
			a.x = l.Start(op.n)
			if l.Enroll(a.x, &a.h) {
				return
			}
			l.Collect(a.x)
			a.x = nil
		}
		a.done()
	}
}

// TestHandlesKeepDispatchOrder is the differential test of callback
// handles: random programs of timed waits, same-instant ties, signal
// waits, SharedLink transfers and Timeline claims run once with every
// waiter a parked process and once with the non-blocking ones as
// handles (and first-step claims as an event plus StartAt). Every step
// must complete at the same instant and in the same dispatch order in
// both, and the runs must dispatch the same number of events.
func TestHandlesKeepDispatchOrder(t *testing.T) {
	const nSigs = 4
	var handles, steps int
	for seed := int64(1); seed <= 300; seed++ {
		program := genProgram(rand.New(rand.NewSource(seed)), nSigs)
		procs := runProgram(seed, program, nSigs, false)
		mixed := runProgram(seed, program, nSigs, true)
		if !slices.Equal(procs.log, mixed.log) {
			t.Fatalf("seed %d: dispatch logs differ\nprocesses: %v\nhandles:   %v", seed, procs.log, mixed.log)
		}
		if procs.env.Events() != mixed.env.Events() || procs.env.Now() != mixed.env.Now() {
			t.Fatalf("seed %d: %d events ending at %v with processes, %d at %v with handles", seed,
				procs.env.Events(), procs.env.Now(), mixed.env.Events(), mixed.env.Now())
		}
		handles += mixed.handles
		steps += len(procs.log)
	}
	if handles < 300 || steps < 3000 {
		t.Fatalf("programs too small to compare: %d handle actors, %d steps", handles, steps)
	}
}

func TestHandleRunsInResumeSlot(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var sig Signal
	var order []string
	var h Proc
	e.Handle(&h, func() { order = append(order, fmt.Sprintf("handle@%v", e.Now())) })
	e.Go("waiter", func(p *Proc) {
		p.Await(&sig)
		order = append(order, "process")
	})
	e.Schedule(0, func() {
		if !sig.Enroll(&h) {
			t.Error("Enroll on an unfired signal reported fired")
		}
	})
	e.Schedule(time.Microsecond, sig.Fire)
	e.Run()
	// The process enrolled first, so it resumes first; the handle runs
	// in the next slot of the same grant.
	if want := []string{"process", "handle@1µs"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if sig.Enroll(&h) {
		t.Fatal("Enroll on a fired signal enrolled")
	}
}

func TestEnrollProcessPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var sig Signal
	defer func() {
		if recover() == nil {
			t.Fatal("Enroll of a process did not panic")
		}
	}()
	sig.Enroll(new(Proc))
}

// TestEnrollWaitingHandlePanics: a handle waits on one signal at a
// time. Once the first has fired and run it, it may enroll again.
func TestEnrollWaitingHandlePanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var h Proc
	e.Handle(&h, func() {})
	var a, b Signal
	a.Enroll(&h)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("enrolling a handle that waits on another signal did not panic")
			}
		}()
		b.Enroll(&h)
	}()
	a.Fire()
	e.Run()
	if !b.Enroll(&h) {
		t.Fatal("Enroll on an unfired signal after the handle ran enrolled nothing")
	}
}

func TestStartAtStartsAtInstant(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var started []time.Duration
	body := func(p *Proc) { started = append(started, e.Now()) }
	var late, past Proc
	e.Go("driver", func(p *Proc) {
		p.Wait(time.Millisecond)
		e.StartAt(&late, 3*time.Millisecond, "late", body)
		e.StartAt(&past, 0, "past", body)
	})
	e.Run()
	if want := []time.Duration{time.Millisecond, 3 * time.Millisecond}; !slices.Equal(started, want) {
		t.Fatalf("started at %v, want %v", started, want)
	}
}
