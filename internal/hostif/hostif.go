// Package hostif models the host side of a storage device: the
// physical interface (PCIe or SATA) and the per-request software
// overhead of the I/O path.
//
// The paper's two I/O stacks (Figure 6) differ sharply in cost: the
// conventional path through VFS, the block layer, the scheduler, and
// the SCSI/SATA translation costs ~12.9 µs per request on the
// evaluation servers (§4.3, citing Foong et al.), while SDF's
// user-space IOCTL path over a thin PCIe driver costs only 2-4 µs,
// mostly for message-signaled interrupt handling (§2.4).
package hostif

import (
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Interface is the physical host link of a device. PCIe is full
// duplex with DMA interleaving (fair sharing); SATA is a single
// half-duplex serialized link.
type Interface struct {
	// read moves device-to-host traffic, write host-to-device. For
	// half-duplex interfaces both point at the same underlying link.
	read  transferrer
	write transferrer
}

type transferrer interface {
	Transfer(p *sim.Proc, n int)
	Moved() int64
	SetRateFactor(f float64)
	RateFactor() float64
}

// Effective interface rates in bytes/s. PCIe 1.1 x8 is 2 GB/s per
// direction nominal; after 8b/10b coding and TLP overhead the paper
// measures 1.61 GB/s device to host and 1.40 GB/s host to device
// (§3.2). SATA 2.0 is 300 MB/s nominal, ~270 MB/s after framing.
const (
	pcieToHost   = 1.61e9
	pcieToDevice = 1.40e9
	sataRate     = 270e6
)

// PCIe11x8 returns a PCIe 1.1 x8 interface, full duplex.
func PCIe11x8(env *sim.Env) *Interface {
	read := sim.NewSharedLink(env, pcieToHost)
	read.SetName("pcie/to-host")
	write := sim.NewSharedLink(env, pcieToDevice)
	write.SetName("pcie/to-device")
	return &Interface{read: read, write: write}
}

// SATA2 returns a SATA 2.0 interface, half duplex.
func SATA2(env *sim.Env) *Interface {
	l := sim.NewLink(env, sataRate, 2*time.Microsecond)
	l.SetName("sata")
	return &Interface{read: l, write: l}
}

// ToHost moves n bytes from the device to host memory.
func (i *Interface) ToHost(p *sim.Proc, n int) { i.read.Transfer(p, n) }

// ToDevice moves n bytes from host memory to the device.
func (i *Interface) ToDevice(p *sim.Proc, n int) { i.write.Transfer(p, n) }

// SetRateFactor scales both DMA directions by f (0 < f <= 1 degrades;
// 1 restores full speed). Fault plans use it to model a PCIe card
// renegotiating down to fewer lanes or a lower generation.
func (i *Interface) SetRateFactor(f float64) {
	i.read.SetRateFactor(f)
	if i.write != i.read {
		i.write.SetRateFactor(f)
	}
}

// RateFactor returns the current degradation factor.
func (i *Interface) RateFactor() float64 { return i.read.RateFactor() }

// RegisterMetrics exports the interface's cumulative byte movement
// and its current rate factor (1 = healthy; fault plans degrade it).
func (i *Interface) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.CounterFunc("hostif_to_host_bytes_total", func() int64 { return i.read.Moved() }, labels...)
	r.CounterFunc("hostif_to_device_bytes_total", func() int64 { return i.write.Moved() }, labels...)
	r.GaugeFunc("hostif_rate_factor", func() float64 { return i.read.RateFactor() }, labels...)
}

// Moved returns total (toHost, toDevice) bytes.
func (i *Interface) Moved() (toHost, toDevice int64) {
	if i.read == i.write {
		return i.read.Moved(), i.read.Moved()
	}
	return i.read.Moved(), i.write.Moved()
}

// StackParams describes the per-request software cost of an I/O path.
type StackParams struct {
	// SubmitCost is CPU time to issue one request (syscall, block
	// layer, scheduler, command setup).
	SubmitCost time.Duration
	// CompleteCost is CPU time to handle one completion (interrupt,
	// unwinding the stack back to user space).
	CompleteCost time.Duration
	// InterruptMerge divides the interrupt-handling share of
	// CompleteCost: the SDF controller coalesces completion interrupts
	// across channel engines so the host sees only 1/4 to 1/5 as many
	// interrupts as operations (§2.1). 0 or 1 means no merging.
	InterruptMerge int
	// CPUs bounds how many requests can be in the software path
	// concurrently (cores available for I/O processing).
	CPUs int
}

// KernelStack is the conventional Linux I/O path: 3.8 µs issue +
// 9.1 µs completion = 12.9 µs per request (Foong et al., §4.3).
func KernelStack() StackParams {
	return StackParams{
		SubmitCost:   3800 * time.Nanosecond,
		CompleteCost: 9100 * time.Nanosecond,
		CPUs:         16,
	}
}

// BypassStack is SDF's user-space IOCTL path: ~3 µs per request,
// mostly MSI handling, with 4-way interrupt merging (§2.4).
func BypassStack() StackParams {
	return StackParams{
		SubmitCost:     1 * time.Microsecond,
		CompleteCost:   8 * time.Microsecond,
		InterruptMerge: 4,
		CPUs:           16,
	}
}

// Stack models software-path CPU costs as a bounded resource. CPU
// charges are pure timed holds, so the cores are a sim.Timeline: a
// request parks once for queueing-plus-service instead of taking the
// acquire/wait/release slow path.
type Stack struct {
	env    *sim.Env
	params StackParams
	cpu    *sim.Timeline

	submits  metrics.Counter
	inflight int // requests between Submit and Complete
}

// NewStack builds a stack model on env.
func NewStack(env *sim.Env, params StackParams) *Stack {
	cpus := params.CPUs
	if cpus < 1 {
		cpus = 1
	}
	return &Stack{env: env, params: params, cpu: sim.NewTimeline(env, cpus)}
}

// Submit charges the request-issue cost. The request counts as in
// flight until its Complete.
func (s *Stack) Submit(p *sim.Proc) {
	s.submits.Inc()
	s.inflight++
	span := s.env.Tracer().Begin(s.env.Now(), p.Span(), "stack/submit", trace.PhaseSoftware)
	s.charge(p, s.params.SubmitCost)
	s.env.Tracer().End(s.env.Now(), span)
}

// Complete charges the completion cost, reduced by interrupt merging.
func (s *Stack) Complete(p *sim.Proc) {
	c := s.params.CompleteCost
	if s.params.InterruptMerge > 1 {
		c /= time.Duration(s.params.InterruptMerge)
	}
	span := s.env.Tracer().Begin(s.env.Now(), p.Span(), "stack/complete", trace.PhaseSoftware)
	s.charge(p, c)
	s.env.Tracer().End(s.env.Now(), span)
	if s.inflight > 0 {
		s.inflight--
	}
}

// Abort takes a submitted request out of flight without charging any
// completion cost: the device failed it, so no completion interrupt is
// modelled, but the request is no longer between Submit and Complete.
func (s *Stack) Abort() {
	if s.inflight > 0 {
		s.inflight--
	}
}

// Inflight returns how many requests are between Submit and Complete.
func (s *Stack) Inflight() int { return s.inflight }

// RegisterMetrics adopts the stack's request counter into r and
// installs an in-flight gauge — the host-side queue depth the paper's
// latency analysis cares about.
func (s *Stack) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("hostif_requests_total", &s.submits, labels...)
	r.GaugeFunc("hostif_inflight_requests", func() float64 { return float64(s.inflight) }, labels...)
}

// PerRequestCost returns the total software time per request after
// merging, useful for reporting.
func (s *Stack) PerRequestCost() time.Duration {
	c := s.params.CompleteCost
	if s.params.InterruptMerge > 1 {
		c /= time.Duration(s.params.InterruptMerge)
	}
	return s.params.SubmitCost + c
}

func (s *Stack) charge(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	s.cpu.Occupy(p, d)
}
