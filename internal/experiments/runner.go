package experiments

import (
	"sync"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// KernelStats aggregates scheduler counters across every sim.Env an
// experiment run creates (Options.newEnv registers them). A nil
// receiver is a no-op, so experiment code registers unconditionally
// and only harnesses that want the numbers pay for them.
type KernelStats struct {
	envs []*sim.Env
}

func (s *KernelStats) track(env *sim.Env) {
	if s != nil {
		s.envs = append(s.envs, env)
	}
}

// Events returns the total number of kernel events fired across the
// tracked environments.
func (s *KernelStats) Events() uint64 {
	if s == nil {
		return 0
	}
	var n uint64
	for _, e := range s.envs {
		n += e.Events()
	}
	return n
}

// Result is one experiment's table plus its measured host cost.
type Result struct {
	Name   string
	Table  Table
	Wall   time.Duration // host wall-clock of the run, not virtual time
	Events uint64        // kernel events fired across the run's envs
	// TraceSHA256 fingerprints the trace events this experiment added
	// to Options.Tracer (trace.Hash of them); empty when it added none.
	TraceSHA256 string
}

// RunAll executes entries on a pool of workers goroutines and returns
// results in entry order regardless of completion order. Every
// experiment builds its own sim.Envs and shares no simulation state
// with any other, so the tables and metrics are identical to a
// sequential run — only the host-side wall clocks differ. Callers
// must not pass a shared Tracer in opts when workers > 1 (the
// collector is not synchronized); opts.Stats is replaced with a fresh
// per-experiment collector either way.
func RunAll(entries []Entry, opts Options, workers int) []Result {
	if workers < 1 {
		workers = 1
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	results := make([]Result, len(entries))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//sdflint:allow rawgo host-side worker pool over whole experiments; each owns private sim.Envs, no virtual-time state crosses goroutines
		go func() {
			defer wg.Done()
			for i := range next {
				o := opts
				o.Stats = &KernelStats{}
				traced := o.Tracer.Len()
				//sdflint:allow nowallclock measures the host cost of the run itself, never feeds into virtual time
				start := time.Now()
				tab := entries[i].Run(o)
				//sdflint:allow nowallclock measures the host cost of the run itself, never feeds into virtual time
				wall := time.Since(start)
				results[i] = Result{
					Name:   entries[i].Name,
					Table:  tab,
					Wall:   wall,
					Events: o.Stats.Events(),
				}
				if own := o.Tracer.Events()[traced:]; len(own) > 0 {
					results[i].TraceSHA256 = trace.Hash(own)
				}
			}
		}()
	}
	for i := range entries {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}
