package reliability

import (
	"math"
	"math/rand"
	"testing"
)

func TestBERGrowsWithWear(t *testing.T) {
	m := SDFModel()
	prev := -1.0
	for wear := 0; wear <= m.EraseLimit; wear += 500 {
		ber := m.BER(wear)
		if ber <= prev {
			t.Fatalf("BER not increasing at wear %d", wear)
		}
		prev = ber
	}
	if got := m.BER(0); got != m.BaseBER {
		t.Fatalf("BER(0) = %g, want BaseBER", got)
	}
}

func TestSectorUCEMonotoneInWear(t *testing.T) {
	m := SDFModel()
	prev := -1.0
	for wear := 0; wear <= 2*m.EraseLimit; wear += 250 {
		p := m.SectorUCE(wear)
		if p < prev {
			t.Fatalf("UCE probability decreased at wear %d", wear)
		}
		if p < 0 || p > 1 {
			t.Fatalf("UCE probability %g out of range", p)
		}
		prev = p
	}
}

func TestSectorUCEEdgeCases(t *testing.T) {
	m := SDFModel()
	m.BaseBER = 0
	m.WearBER = 0
	if p := m.SectorUCE(0); p != 0 {
		t.Fatalf("zero BER gives UCE %g", p)
	}
	m.BaseBER = 1
	if p := m.SectorUCE(0); p != 1 {
		t.Fatalf("BER=1 gives UCE %g", p)
	}
}

// TestSectorUCEMatchesMonteCarlo cross-checks the analytic binomial
// tail against direct simulation at a BER high enough to sample.
func TestSectorUCEMatchesMonteCarlo(t *testing.T) {
	m := SDFModel()
	m.BaseBER = 2e-3 // ~8.5 expected errors/codeword: near the t=8 cliff
	analytic := m.SectorUCE(0)
	rng := rand.New(rand.NewSource(1))
	n := m.codewordBits()
	const trials = 20000
	fails := 0
	for i := 0; i < trials; i++ {
		errs := 0
		// Binomial sampling via Poisson approximation is inaccurate
		// here; sample the binomial directly but cheaply using the
		// normal-region shortcut is unsafe too, so count Bernoulli
		// successes in blocks of geometric skips.
		for pos := nextErr(rng, m.BaseBER); pos < n; pos += nextErr(rng, m.BaseBER) {
			errs++
		}
		if errs > m.T {
			fails++
		}
	}
	got := float64(fails) / trials
	if analytic <= 0 {
		t.Fatalf("analytic = %g", analytic)
	}
	ratio := got / analytic
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("Monte Carlo %.4g vs analytic %.4g (ratio %.2f)", got, analytic, ratio)
	}
}

// nextErr samples the geometric gap to the next bit error.
func nextErr(rng *rand.Rand, p float64) int {
	u := rng.Float64()
	return 1 + int(math.Log(1-u)/math.Log1p(-p))
}

func TestFieldAnecdoteConsistency(t *testing.T) {
	// §2.2: 2000+ cards over six months produced exactly one
	// uncorrectable error. At moderate wear, the model's expectation
	// for that fleet must be of order one — neither ~zero nor huge.
	m := SDFModel()
	// Each 704 GB card reading ~1 TB/day (half its peak for ~2 hours).
	perDay := 1e12
	expected := m.FleetUCEs(1200, perDay, 2000, 180)
	if expected < 1e-3 || expected > 1e3 {
		t.Fatalf("fleet expectation %.3g at wear 1200; model inconsistent with the field anecdote", expected)
	}
}

func TestDeviceUCEPerReadScalesWithSectors(t *testing.T) {
	m := SDFModel()
	m.BaseBER = 1e-4
	one := m.DeviceUCEPerRead(0, 512)
	page := m.DeviceUCEPerRead(0, 8192) // 16 sectors
	if page <= one {
		t.Fatalf("page UCE %g not above sector UCE %g", page, one)
	}
	// For small p, 16 sectors ~ 16x the probability.
	if ratio := page / one; ratio < 14 || ratio > 16.1 {
		t.Fatalf("sector scaling ratio %.2f, want ~16", ratio)
	}
}

// TestDeviceUCEPerReadBelowEpsilon reads a page at 500 P/E, where the
// sector probability is far below float64's epsilon, so 1-p rounds to
// 1: the page probability must still be about sectors·p, not 0.
func TestDeviceUCEPerReadBelowEpsilon(t *testing.T) {
	m := SDFModel()
	const pageBytes = 8192
	p := m.SectorUCE(500)
	if p <= 0 || p >= 1e-17 {
		t.Fatalf("sector UCE %g at 500 P/E, want a positive value below epsilon", p)
	}
	want := float64(pageBytes/m.SectorBytes) * p
	got := m.DeviceUCEPerRead(500, pageBytes)
	if got <= 0 || math.Abs(got-want) > 1e-9*want {
		t.Fatalf("page UCE %g at 500 P/E, want ~%g (sectors·p)", got, want)
	}
}

func TestLogChoose(t *testing.T) {
	// log C(10, 3) = log 120.
	if got := math.Exp(logChoose(10, 3)); math.Abs(got-120) > 1e-9*120 {
		t.Fatalf("C(10,3) = %g", got)
	}
	if got := math.Exp(logChoose(5, 0)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("C(5,0) = %g", got)
	}
}
