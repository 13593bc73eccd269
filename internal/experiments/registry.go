package experiments

import "strings"

// Entry is one runnable experiment of the suite.
type Entry struct {
	Name string
	Desc string
	Run  func(Options) Table
	// Check is the experiment's contract: the predicates its table
	// must satisfy, stated once. It returns every violated predicate
	// with its numbers, nil when all hold. A metric the contract needs
	// but the table lacks is a violation. Nil means no contract.
	Check func(Table) error
}

// Registry returns the full experiment suite in canonical order — the
// order sdfbench runs and prints them. Harnesses must treat the
// returned slice as read-only.
func Registry() []Entry {
	return []Entry{
		{"table1", "commodity SSD raw vs measured bandwidth", Table1, nil},
		{"figure1", "random-write throughput vs over-provisioning", Figure1, nil},
		{"table4", "device throughput by request size", Table4, nil},
		{"figure7", "SDF channel scaling", Figure7, nil},
		{"figure8", "write latency traces", Figure8, nil},
		{"figure10", "one slice, batched 512 KB reads", Figure10, nil},
		{"figure11", "4/8 slices, batched 512 KB reads", Figure11, nil},
		{"figure12", "request size x slice count at batch 44", Figure12, nil},
		{"figure13", "sequential scan vs slice count", Figure13, nil},
		{"figure14", "write + compaction throughput", Figure14, nil},
		{"stack", "kernel vs user-space I/O path cost", SoftwareStack, nil},
		{"erase", "SDF aggregate erase throughput", EraseThroughput, nil},
		{"stripe", "ablation: striping unit", AblationStripeUnit, nil},
		{"buffer", "ablation: DRAM write buffer", AblationWriteBuffer, nil},
		{"erasesched", "ablation: erase scheduling", AblationEraseScheduling, nil},
		{"sdfop", "ablation: over-provisioning on SDF", AblationSDFOverProvision, nil},
		{"interrupts", "ablation: interrupt merging", AblationInterruptMerging, nil},
		{"parity", "ablation: parity channels", AblationParity, nil},
		{"staticwl", "ablation: static wear leveling", AblationStaticWL, nil},
		{"readprio", "future work: reads over writes/erases", FutureWorkReadPriority, nil},
		{"placement", "future work: load-balanced write placement", FutureWorkPlacement, nil},
		{"activescan", "future work: in-storage filtered scan", FutureWorkActiveScan, nil},
		{"faults", "availability under injected faults", Faults, checkFaults},
		{"recovery", "mount-time recovery scan vs fill level", Recovery, checkRecovery},
		{"codesign", "deadline-aware erase/write co-scheduling", CoDesign, checkCoDesign},
	}
}

// Lookup finds a registry entry by case-insensitive name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Entry{}, false
}
