package experiments

import (
	"strings"
	"testing"
)

// runContract runs the named experiment in quick mode with the
// observability pipeline on, as make verify does, and requires its
// Check to pass.
func runContract(t *testing.T, name string) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	if e.Check == nil {
		t.Fatalf("%s carries no contract", name)
	}
	tab := e.Run(Options{Quick: true, Metrics: true})
	checkTable(t, tab, 1)
	if tab.Observability == nil && name == "faults" {
		t.Fatal("faults with Options.Metrics produced no observability payload; its SLO contract went unchecked")
	}
	if err := e.Check(tab); err != nil {
		t.Errorf("contract violated:\n%v", err)
	}
}

// contractTests names the contracted experiments that have a test of
// their own below; TestContracts runs every other one.
var contractTests = map[string]bool{"recovery": true, "codesign": true, "faults": true}

// TestRecoveryTable runs the bounded-recovery contract (checkRecovery).
func TestRecoveryTable(t *testing.T) { runContract(t, "recovery") }

// TestCoDesignSeparation runs the co-scheduling contract (checkCoDesign).
func TestCoDesignSeparation(t *testing.T) { runContract(t, "codesign") }

// TestFaultsSLOSeparation runs the availability SLO contract (checkFaults).
func TestFaultsSLOSeparation(t *testing.T) { runContract(t, "faults") }

// TestContracts runs the contract of every experiment that carries one
// and has no test of its own, so a new contract is checked as soon as
// its registry entry gains a Check.
func TestContracts(t *testing.T) {
	checked := 0
	for _, e := range Registry() {
		if e.Check == nil {
			continue
		}
		checked++
		if contractTests[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) { runContract(t, e.Name) })
	}
	if checked == 0 {
		t.Fatal("no registry entry carries a contract")
	}
}

// TestContractMissingMetricIsViolation holds the rule that a contract
// never passes by default: a table without the metrics or SLO results
// its predicates read fails them, naming what is missing.
func TestContractMissingMetricIsViolation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(Table) error
		tab   Table
		want  string
	}{
		{"codesign", checkCoDesign, Table{}, `metric "coord.p99_ms" missing`},
		{"faults", checkFaults, Table{Observability: &Observability{}}, `SLO objective "sdf/read_p99" missing`},
		{"recovery", checkRecovery, Table{Rows: [][]string{
			{"10%", "88", "88", "16"}, {"90%", "800", "800", "16"},
		}}, `metric "recovery_probed_pages_f10" missing`},
	} {
		err := tc.check(tc.tab)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check of an incomplete table = %v, want a violation containing %s", tc.name, err, tc.want)
		}
	}
}
