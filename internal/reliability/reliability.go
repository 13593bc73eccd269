// Package reliability implements the flash data-reliability model the
// paper names as its final future-work item (§5): "we believe that it
// would be both possible and useful to incorporate, and expose, a
// data reliability model for flash memory in our infrastructure."
//
// The model follows the stack's actual protection mechanism: each
// 512-byte sector is guarded by a t-error-correcting BCH code, and raw
// bit errors arrive independently at a wear-dependent rate (the same
// curve internal/nand injects). A sector read is uncorrectable when
// more than t of its bits flip, so
//
//	P(sector UCE) = P(Binomial(n, ber) > t)
//
// with n the codeword length in bits. The package exposes this
// per-sector probability and aggregates it to device and fleet scale,
// which answers whether the paper's field anecdote — one
// uncorrectable error across 2000+ cards in six months (§2.2) — is
// consistent with healthy flash.
package reliability

import (
	"fmt"
	"math"
)

// Model describes the protection applied to every sector.
type Model struct {
	// SectorBytes is the BCH payload (512 B on the SDF card).
	SectorBytes int
	// ParityBits is the redundancy per sector (m*t = 104 for the
	// t=8, m=13 code).
	ParityBits int
	// T is the correctable bit errors per sector.
	T int
	// BaseBER and WearBER define the raw bit error rate as a function
	// of wear: ber = BaseBER + WearBER*(wear/EraseLimit)^2, matching
	// internal/nand's injection model.
	BaseBER    float64
	WearBER    float64
	EraseLimit int
}

// SDFModel returns the production card's protection: BCH t=8 over
// 512 B sectors on 25 nm MLC with 3000 P/E endurance. WearBER is
// calibrated so a 2000-card fleet at mid-life wear reading ~1 TB per
// device-day expects an uncorrectable error count of order one over
// six months — the paper's field observation (§2.2). The implied
// end-of-life raw BER (~1.4e-4) sits inside the published range for
// worn 25 nm MLC.
func SDFModel() Model {
	return Model{
		SectorBytes: 512,
		ParityBits:  104,
		T:           8,
		BaseBER:     1e-8,
		WearBER:     1.4e-4,
		EraseLimit:  3000,
	}
}

// codewordBits is the protected length: payload plus parity.
func (m Model) codewordBits() int { return m.SectorBytes*8 + m.ParityBits }

// BER returns the raw bit error rate at the given wear (P/E cycles).
func (m Model) BER(wear int) float64 {
	ber := m.BaseBER
	if m.WearBER > 0 && m.EraseLimit > 0 {
		frac := float64(wear) / float64(m.EraseLimit)
		ber += m.WearBER * frac * frac
	}
	return ber
}

// SectorUCE returns the probability that one sector read is
// uncorrectable at the given wear: P(Binomial(n, ber) > t), computed
// through the complementary CDF in log space for numerical range.
func (m Model) SectorUCE(wear int) float64 {
	ber := m.BER(wear)
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	n := m.codewordBits()
	// Sum P(k) for k = t+1 .. n. Terms decay geometrically (ber is
	// tiny), so a few hundred terms are overkill; stop when the term
	// underflows relative to the accumulated sum.
	logBer := math.Log(ber)
	logQ := math.Log1p(-ber)
	sum := 0.0
	for k := m.T + 1; k <= n; k++ {
		logTerm := logChoose(n, k) + float64(k)*logBer + float64(n-k)*logQ
		term := math.Exp(logTerm)
		sum += term
		if term < sum*1e-16 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// logChoose returns log(n choose k) via log-gamma.
func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// DeviceUCEPerRead returns the probability that a page-sized read
// (pageBytes of payload) hits at least one uncorrectable sector:
// 1 - (1-p)^sectors, computed as -expm1(sectors·log1p(-p)) so that a p
// below float64's epsilon, where 1-p rounds to 1, still gives about
// sectors·p instead of 0.
func (m Model) DeviceUCEPerRead(wear, pageBytes int) float64 {
	sectors := pageBytes / m.SectorBytes
	if sectors < 1 {
		sectors = 1
	}
	p := m.SectorUCE(wear)
	return -math.Expm1(float64(sectors) * math.Log1p(-p))
}

// FleetUCEs returns the expected number of uncorrectable events for a
// fleet reading readBytesPerDay per device across devices for days,
// with every block at the given wear.
func (m Model) FleetUCEs(wear int, readBytesPerDay float64, devices, days int) float64 {
	sectorsPerDay := readBytesPerDay / float64(m.SectorBytes)
	return m.SectorUCE(wear) * sectorsPerDay * float64(devices) * float64(days)
}

// String summarizes the model.
func (m Model) String() string {
	return fmt.Sprintf("BCH t=%d over %d B sectors, BER %.1e..%.1e across 0..%d P/E",
		m.T, m.SectorBytes, m.BER(0), m.BER(m.EraseLimit), m.EraseLimit)
}
