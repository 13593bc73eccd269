package nand

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/sim"
)

// seqSource is a SpareSource whose page i carries (tag, i): enough to
// tell every page of every run apart. It counts its releases.
type seqSource struct {
	tag      byte
	released int
}

func (s *seqSource) Spare(i int) []byte { return []byte{s.tag, byte(i), byte(i >> 8)} }
func (s *seqSource) Release()           { s.released++ }

// periodicFrom gives starts as Pulses whose entries from i on, which
// must be one TProg apart, form the closed-form tail.
func periodicFrom(starts []time.Duration, i int) Pulses {
	if i == len(starts) {
		return Pulses{Stepped: starts}
	}
	return Pulses{Stepped: starts[:i], TailStart: starts[i], Tail: len(starts) - i}
}

// TestSettleProgramRunCutRule pins the power-cut rule for a run of
// pulses at the instant it is easiest to get wrong: a cut exactly on the
// end of pulse k. Pages up to k are programmed (a pulse ending at the
// very instant of the cut completed); page k+1 is torn iff its pulse
// began before that instant — in a back-to-back schedule it begins at
// it, and leaves no trace — and later pages are absent either way. Each
// case runs with every pulse listed, and with the pulses from k+1 on
// (one TProg apart) given as the periodic tail.
func TestSettleProgramRunCutRule(t *testing.T) {
	params := plParams()
	params.PagesPerBlock = 6
	tp := params.TProg
	const k = 2 // the cut lands on the end of this pulse
	for _, tc := range []struct {
		name     string
		next     time.Duration // start of pulse k+1 relative to the cut
		writePtr int
		torn     bool
		tail     bool
	}{
		{"next pulse begins at the cut", 0, k + 1, false, false},
		{"next pulse begins after the cut", 1, k + 1, false, false},
		{"next pulse had begun one ns earlier", -1, k + 2, true, false},
		{"tail begins at the cut", 0, k + 1, false, true},
		{"tail begins after the cut", 1, k + 1, false, true},
		{"tail had begun one ns earlier", -1, k + 2, true, true},
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
		base := env.Now()
		cut := base + time.Duration(k+1)*tp
		var starts []time.Duration
		for i := 0; i <= k; i++ {
			starts = append(starts, base+time.Duration(i)*tp)
		}
		for i := k + 1; i < params.PagesPerBlock; i++ {
			starts = append(starts, cut+tc.next+time.Duration(i-k-1)*tp)
		}
		env.Schedule(cut-env.Now(), chip.PowerOff)
		env.Run()
		src := &seqSource{tag: 9}
		data := make([]byte, len(starts)*params.PageSize)
		pulses := periodicFrom(starts, len(starts))
		if tc.tail {
			pulses = periodicFrom(starts, k+1)
		}
		n, err := pl.SettleProgramRun(0, 0, pulses, data, src, 100)
		if n != k+1 || !errors.Is(err, ErrPowerLoss) {
			t.Errorf("%s: %d pages programmed, error %v; want %d and power loss", tc.name, n, err, k+1)
		}
		if pl.WritePtr(0) != tc.writePtr {
			t.Errorf("%s: write pointer %d, want %d", tc.name, pl.WritePtr(0), tc.writePtr)
		}
		for pg := 0; pg < params.PagesPerBlock; pg++ {
			var want []byte
			if pg <= k {
				want = src.Spare(100 + pg)
			}
			if got := pl.Spare(0, pg); !bytes.Equal(got, want) {
				t.Errorf("%s: page %d spare %v, want %v", tc.name, pg, got, want)
			}
			if got, want := pl.Torn(0, pg), tc.torn && pg == k+1; got != want {
				t.Errorf("%s: page %d torn %v, want %v", tc.name, pg, got, want)
			}
		}
		if src.released != 0 {
			t.Errorf("%s: source released %d times while its run is retained", tc.name, src.released)
		}
		env.Close()
	}
}

// spareModel is the naive store the run store is held to: one entry per
// page.
type spareModel struct {
	spares   map[[2]int][]byte
	torn     map[[2]int]bool
	writePtr []int
}

func (m *spareModel) erase(b, pages int) {
	for pg := 0; pg < pages; pg++ {
		delete(m.spares, [2]int{b, pg})
		delete(m.torn, [2]int{b, pg})
	}
	m.writePtr[b] = 0
}

// TestRunStoreMatchesPageModel drives one plane with random
// interleavings of run settles, single-page literal programs (no spare,
// short, page-long), erases, power cuts inside a run, and hand-offs of
// the Media to Mount, and after every step requires every page's spare,
// every write pointer and every torn mark to equal the page-per-entry
// model's. A run's pulses are back to back, so each settle gives a
// step-dependent suffix of them as the periodic tail. At the end every
// block is erased and every source must have been released exactly once.
func TestRunStoreMatchesPageModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := plParams()
		params.BlocksPerPlane = 5
		params.PagesPerBlock = 3 + rng.Intn(6)
		params.PageSize = 64
		params.RetainData = seed%2 == 0
		params.EraseLimit = 0
		tp := params.TProg
		env := sim.NewEnv()
		chip := New(env, params)
		pl := chip.Plane(0)
		m := &spareModel{spares: map[[2]int][]byte{}, torn: map[[2]int]bool{}, writePtr: make([]int, params.BlocksPerPlane)}
		for b := range m.writePtr {
			m.writePtr[b] = -1
		}
		var sources []*seqSource
		newSource := func() *seqSource {
			s := &seqSource{tag: byte(len(sources) + 1)}
			sources = append(sources, s)
			return s
		}
		erase := func(b int) {
			done := env.Go("erase", func(p *sim.Proc) {
				if err := pl.Erase(p, b); err != nil {
					t.Errorf("seed %d: erase %d: %v", seed, b, err)
				}
			})
			env.RunUntilDone(done)
			m.erase(b, params.PagesPerBlock)
		}
		payload := func(pages int) []byte {
			if !params.RetainData || rng.Intn(3) == 0 {
				return nil
			}
			return make([]byte, pages*params.PageSize)
		}
		check := func(step string) {
			t.Helper()
			for b := 0; b < params.BlocksPerPlane; b++ {
				if pl.WritePtr(b) != m.writePtr[b] {
					t.Fatalf("seed %d after %s: block %d write pointer %d, model %d", seed, step, b, pl.WritePtr(b), m.writePtr[b])
				}
				for pg := 0; pg < params.PagesPerBlock; pg++ {
					at := [2]int{b, pg}
					if got := pl.Spare(b, pg); !bytes.Equal(got, m.spares[at]) {
						t.Fatalf("seed %d after %s: block %d page %d spare %v, model %v", seed, step, b, pg, got, m.spares[at])
					}
					if pl.Torn(b, pg) != m.torn[at] {
						t.Fatalf("seed %d after %s: block %d page %d torn %v, model %v", seed, step, b, pg, pl.Torn(b, pg), m.torn[at])
					}
				}
			}
		}
		for step := 0; step < 120; step++ {
			b := rng.Intn(params.BlocksPerPlane)
			room := params.PagesPerBlock - m.writePtr[b]
			op := rng.Intn(10)
			switch {
			case m.writePtr[b] < 0 || room == 0 || op == 0:
				erase(b)
				check(fmt.Sprintf("step %d erase %d", step, b))
			case op <= 4: // a run, settled after its last pulse
				first, n := m.writePtr[b], 1+rng.Intn(room)
				starts := make([]time.Duration, n)
				for i := range starts {
					starts[i] = env.Now() - time.Duration(n-i)*tp
				}
				src, base := newSource(), rng.Intn(1000)
				if got, err := pl.SettleProgramRun(b, first, periodicFrom(starts, step%(n+1)), payload(n), src, base); got != n || err != nil {
					t.Fatalf("seed %d step %d: run settled %d of %d pages: %v", seed, step, got, n, err)
				}
				for i := 0; i < n; i++ {
					m.spares[[2]int{b, first + i}] = src.Spare(base + i)
				}
				m.writePtr[b] += n
				check(fmt.Sprintf("step %d run of %d on %d", step, n, b))
			case op <= 7: // one page with literal bytes
				var spare []byte
				switch rng.Intn(3) {
				case 1:
					spare = make([]byte, 1+rng.Intn(50))
				case 2:
					spare = make([]byte, params.PageSize)
				}
				rng.Read(spare)
				if err := pl.SettleProgram(b, m.writePtr[b], env.Now()-tp, payload(1), spare); err != nil {
					t.Fatalf("seed %d step %d: literal program: %v", seed, step, err)
				}
				if spare != nil {
					m.spares[[2]int{b, m.writePtr[b]}] = append([]byte(nil), spare...)
					spare[0] ^= 0xff // the store must have copied it
				}
				m.writePtr[b]++
				check(fmt.Sprintf("step %d literal on %d", step, b))
			default: // power dies inside a run; the media moves to a new chip
				first, n := m.writePtr[b], 1+rng.Intn(room)
				cut := env.Now() + time.Duration(rng.Int63n(int64(time.Duration(n+1)*tp)))
				if rng.Intn(2) == 0 { // exactly on a pulse boundary
					cut = env.Now() + time.Duration(rng.Intn(n+1))*tp
				}
				starts := make([]time.Duration, n)
				for i := range starts {
					starts[i] = env.Now() + time.Duration(i)*tp
				}
				env.Schedule(cut-env.Now(), chip.PowerOff)
				env.Run()
				src, base := newSource(), rng.Intn(1000)
				got, err := pl.SettleProgramRun(b, first, periodicFrom(starts, step%(n+1)), payload(n), src, base)
				// The model, page by page.
				want := 0
				for want < n && starts[want]+tp <= cut {
					m.spares[[2]int{b, first + want}] = src.Spare(base + want)
					want++
				}
				m.writePtr[b] += want
				if want < n && starts[want] < cut {
					m.torn[[2]int{b, first + want}] = true
					m.writePtr[b]++
				}
				if got != want || (err == nil) != (want == n) || (err != nil && !errors.Is(err, ErrPowerLoss)) {
					t.Fatalf("seed %d step %d: cut run settled %d pages (%v), model %d of %d", seed, step, got, err, want, n)
				}
				if want == 0 && src.released != 1 {
					t.Fatalf("seed %d step %d: source of a run that retained nothing released %d times", seed, step, src.released)
				}
				check(fmt.Sprintf("step %d cut run on %d", step, b))
				env.Close()
				env = sim.NewEnv()
				next, err := Mount(env, params, chip.Media())
				if err != nil {
					t.Fatal(err)
				}
				chip, pl = next, next.Plane(0)
				check(fmt.Sprintf("step %d remount", step))
			}
		}
		for b := 0; b < params.BlocksPerPlane; b++ {
			erase(b)
		}
		check("final erase")
		for _, s := range sources {
			if s.released != 1 {
				t.Errorf("seed %d: source %d released %d times, want once", seed, s.tag, s.released)
			}
		}
		env.Close()
	}
}
