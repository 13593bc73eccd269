package fault

import (
	"testing"
	"time"
)

// FuzzParse feeds arbitrary bytes to Parse. It must never panic, and
// every plan it accepts must expand, as Arm expands it, into
// occurrences that fire and end at non-negative instants, in
// non-decreasing order per injection. The seed corpus in
// testdata/fuzz/FuzzParse holds the built-in plans and the plans that
// once validated with instants that wrapped into the past or with
// billions of occurrences; plain `go test` replays it.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := Parse(data)
		if err != nil {
			return
		}
		total := 0
		for i, in := range pl.Injections {
			prev := time.Duration(-1)
			for k := 0; k < in.occurrences(); k++ {
				occ := in.occurrence(k)
				if occ.At < 0 || occ.At < prev {
					t.Fatalf("injection %d occurrence %d fires at %v after %v", i, k, occ.At, prev)
				}
				if end := occ.At + occ.Duration; end < occ.At {
					t.Fatalf("injection %d occurrence %d ends at %v, before it fires", i, k, end)
				}
				prev = occ.At
				total++
			}
		}
		if total > maxOccurrences {
			t.Fatalf("accepted plan expands into %d occurrences, bound %d", total, maxOccurrences)
		}
	})
}

// TestValidateBoundsPlanExpansion holds the occurrence bound across a
// whole plan, not only per injection.
func TestValidateBoundsPlanExpansion(t *testing.T) {
	half := Injection{Kind: ChannelKill, Target: "x", Every: time.Millisecond, Repeat: maxOccurrences / 2}
	pl := &Plan{Injections: []Injection{half, half}}
	if err := pl.Validate(); err != nil {
		t.Fatalf("plan of exactly %d occurrences rejected: %v", maxOccurrences, err)
	}
	pl.Injections = append(pl.Injections, Injection{Kind: ChannelKill, Target: "x"})
	if err := pl.Validate(); err == nil {
		t.Fatalf("plan of %d occurrences accepted", maxOccurrences+1)
	}
}
