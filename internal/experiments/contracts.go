package experiments

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"sdf/internal/core"
	"sdf/internal/metrics"
)

// A contract is what an experiment's Check evaluates: each predicate
// that does not hold is recorded with its numbers, and a value the
// predicate needs but the table lacks is itself a violation.
type contract struct {
	tab  Table
	errs []error
}

func (c *contract) violated(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// require records a violation when ok is false.
func (c *contract) require(ok bool, format string, args ...any) {
	if !ok {
		c.violated(format, args...)
	}
}

// metric returns a raw metric, recording a missing key as a violation
// (and returning NaN, which fails every comparison after it).
func (c *contract) metric(key string) float64 {
	v, ok := c.tab.Metrics[key]
	if !ok {
		c.violated("metric %q missing", key)
		return math.NaN()
	}
	return v
}

func (c *contract) err() error { return errors.Join(c.errs...) }

// checkRecovery is the bounded-recovery contract. Every fill level
// rides over real crash damage and recovers its seeded blocks; the
// full scan's latency grows with fill; the checkpointed scan beats it
// at every fill; and its cost per mapped block is the probe rule of
// flashchan.Recover, not a page walk. A checkpoint-vouched block costs
// each plane a frontier probe plus one first-page probe, where the
// full scan walks the frontier plus every page, so the checkpointed
// marginal probes per mapped block are 2/(1+PagesPerBlock) of the full
// scan's (8 against 1028 at the default geometry). The 1 % slack is
// the checkpoint image itself, whose chunk pages grow with the blocks
// it lists. The post-checkpoint walk on top of that is a fixed cost, so
// the checkpointed count is not flat in fill: it grows at that small
// marginal rate. The journal half: the mid-stream flush truncated the
// log, so replay covers only the post-truncation tail.
func checkRecovery(tab Table) error {
	c := &contract{tab: tab}
	c.require(len(tab.Rows) == len(recoveryFills), "%d fill rows, want %d", len(tab.Rows), len(recoveryFills))
	if len(tab.Rows) < 2 {
		return c.err()
	}
	fill := func(row []string) string { return row[0][:len(row[0])-1] }
	seeded := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		f := fill(row)
		n, err := strconv.Atoi(row[1])
		c.require(err == nil, "fill %s%%: seeded blocks %q is not a count", f, row[1])
		seeded[i] = float64(n)
		c.require(row[3] != "0", "fill %s%%: no torn blocks, the mid-write cut missed", f)
		c.require(row[2] != "0", "fill %s%%: nothing recovered", f)
		if i > 0 {
			prev, cur := c.metric("recovery_ms_f"+fill(tab.Rows[i-1])), c.metric("recovery_ms_f"+f)
			c.require(cur > prev, "full-scan recovery time did not grow from fill %s%% to %s%% (%.2f ms -> %.2f ms)",
				fill(tab.Rows[i-1]), f, prev, cur)
		}
		full, cp := c.metric("recovery_probed_pages_f"+f), c.metric("recovery_cp_probed_pages_f"+f)
		c.require(cp > 0 && full > 0 && cp < full,
			"fill %s%%: checkpointed scan probed %.0f pages, full scan %.0f; want fewer", f, cp, full)
	}
	lo, hi := 0, len(tab.Rows)-1
	blocks := seeded[hi] - seeded[lo]
	fullPer := (c.metric("recovery_probed_pages_f"+fill(tab.Rows[hi])) - c.metric("recovery_probed_pages_f"+fill(tab.Rows[lo]))) / blocks
	cpPer := (c.metric("recovery_cp_probed_pages_f"+fill(tab.Rows[hi])) - c.metric("recovery_cp_probed_pages_f"+fill(tab.Rows[lo]))) / blocks
	bound := 1.01 * fullPer * 2 / float64(1+core.DefaultConfig().Channel.Nand.PagesPerBlock)
	c.require(blocks > 0 && cpPer <= bound,
		"checkpointed scan costs %.2f probes per mapped block (full scan %.2f); the probe rule allows %.2f",
		cpPer, fullPer, bound)

	acked := c.metric("recovery_journal_puts_acked")
	replayed := c.metric("recovery_journal_replayed")
	truncated := c.metric("recovery_journal_truncated_puts")
	c.require(truncated > 0, "journal never truncated; replay is unbounded")
	c.require(replayed > 0 && replayed < acked,
		"journal replayed %.0f of %.0f acked puts; want a bounded, non-empty tail", replayed, acked)
	return c.err()
}

// checkCoDesign is the co-scheduling contract at equal offered load:
// coordination improves the SDF read tail, read throughput is matched
// across the compared clusters (within 15 %, or the tails are not
// comparable), the window protocol engages and never falls back to a
// forced erase in the steady-state run, the coordinated cluster stays
// within its p99 error budget, and the chaos stage loses no
// acknowledged data, stays above a zero availability floor and
// degrades admission rather than failing.
func checkCoDesign(tab Table) error {
	c := &contract{tab: tab}
	co, nc := c.metric("coord.p99_ms"), c.metric("nocoord.p99_ms")
	c.require(co < nc, "coordination did not improve read p99: coord %.3f ms vs nocoord %.3f ms", co, nc)
	base := c.metric("coord.reads_per_s")
	for _, k := range []string{"nocoord.reads_per_s", "gen3.reads_per_s"} {
		v := c.metric(k)
		skew := math.Abs(v-base) / base
		c.require(skew <= 0.15, "%s=%.0f skews %.0f%% from coord=%.0f: tails are not comparable", k, v, skew*100, base)
	}
	c.require(c.metric("coord.window_grants") > 0, "coordinator granted no erase windows")
	c.require(c.metric("coord.window_deprioritized") > 0, "no reads were routed around erase windows")
	forced := c.metric("coord.forced")
	c.require(forced == 0, "%.0f forced erases in the steady-state run: the window rotation is starving members", forced)
	burn := c.metric("coord.slo_p99_burn")
	c.require(burn <= 1, "coordinated cluster overspent its p99 error budget (burn %.2f)", burn)
	lost := c.metric("chaos.lost")
	c.require(lost == 0, "chaos stage lost %.0f acknowledged reads", lost)
	floor := c.metric("chaos.floor")
	c.require(floor > 0, "chaos availability floor %.0f: the cluster went fully dark", floor)
	c.require(c.metric("chaos.best_effort") > 0, "chaos never degraded admission to best-effort despite replica kills")
	return c.err()
}

// checkFaults is the availability SLO contract, read from the
// observability payload: under the chaos plan the SDF cluster meets
// the 1 ms p99 read objective and its availability objective, the
// parity Gen3 cluster violates the p99 objective, and neither loses a
// read.
func checkFaults(tab Table) error {
	c := &contract{tab: tab}
	slo := make(map[string]metrics.ObjectiveResult)
	if tab.Observability != nil {
		for _, r := range tab.Observability.SLO {
			slo[r.Name] = r
		}
	}
	for _, dev := range []string{"sdf", "gen3"} {
		for _, obj := range []string{"read_p99", "no_lost_reads", "availability"} {
			_, ok := slo[dev+"/"+obj]
			c.require(ok, "SLO objective %q missing", dev+"/"+obj)
		}
	}
	if len(c.errs) > 0 {
		return c.err()
	}
	c.require(slo["sdf/read_p99"].Met, "SDF violated the p99 read objective: %s", slo["sdf/read_p99"])
	c.require(!slo["gen3/read_p99"].Met, "Gen3 unexpectedly met the p99 read objective: %s", slo["gen3/read_p99"])
	for _, dev := range []string{"sdf", "gen3"} {
		r := slo[dev+"/no_lost_reads"]
		c.require(r.Met && r.Violations == 0, "%s lost reads under the chaos plan: %s", dev, r)
	}
	c.require(slo["sdf/availability"].Met, "SDF missed its availability objective: %s", slo["sdf/availability"])
	return c.err()
}

// checkWearout is the §2.2 per-channel reliability contract: BCH
// corrects the wear-dependent bit errors, worn blocks are retired
// before they lose data, and dynamic wear leveling keeps every healthy
// block's erase count within 3 of the others'.
func checkWearout(tab Table) error {
	c := &contract{tab: tab}
	corrected := c.metric("bch_corrected_bits")
	c.require(corrected > 0, "BCH corrected %.0f bits: no wear-dependent error reached the codec", corrected)
	retired := c.metric("retired_blocks")
	c.require(retired > 0, "%.0f blocks retired: the channel wore out without retiring a block", retired)
	lost := c.metric("uncorrectable_sectors")
	c.require(lost == 0, "%.0f uncorrectable sectors: a worn block lost data before it was retired", lost)
	lo, hi := c.metric("erase_min"), c.metric("erase_max")
	c.require(hi-lo <= 3, "erase counts spread %.0f..%.0f, more than 3 apart: dynamic wear leveling failed", lo, hi)
	return c.err()
}

// checkReliability guards the reliability model's calibration: the
// per-read uncorrectable probability strictly grows with wear, and
// the fleet of the paper's field anecdote expects within 2x of the one
// event the paper saw.
func checkReliability(tab Table) error {
	c := &contract{tab: tab}
	prev := 0.0
	for i, wear := range reliabilityWears {
		p := c.metric(fmt.Sprintf("uce_per_8k_read.pe%d", wear))
		if i > 0 {
			c.require(p > prev, "P(uncorrectable per 8 KB read) %.2e at %d P/E is not above %.2e at %d P/E",
				p, wear, prev, reliabilityWears[i-1])
		}
		prev = p
	}
	fleet := c.metric("fleet_uces")
	c.require(fleet >= 0.5 && fleet <= 2, "fleet expects %.2f uncorrectable events, not within 2x of the paper's one", fleet)
	return c.err()
}
