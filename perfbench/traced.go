package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// The traced run labels the CPU profile with the phase of the simulation
// each sample falls in: "setup" until the first event fires, "loop" after.
// Samples from other goroutines (the garbage collector's workers) carry
// no label.
const (
	phaseKey   = "phase"
	phaseSetup = "setup"
	phaseLoop  = "loop"
)

// eventKinds are the event names the three workloads fire; each gets an
// event.<kind> span. Any other name is counted under the last, otherKind.
var eventKinds = []string{
	"elastic-drain", "elastic-join", "elastic-release", "elastic-spot",
	"fault-crash", "fault-restore", "heartbeat", "job-arrival",
	"locality-wait", "map-fetch", "map-overhead", "map-retry",
	"net-flow-done", "nm-heartbeat", "nm-liveness", "reduce-fetch",
	"work-done", otherKind,
}

const otherKind = "other"

// eventSpan accumulates the fires of one event kind. A span's self time
// runs from its fire to the next fire (or to the run's return).
type eventSpan struct {
	n    int
	self time.Duration
}

// spanHook is the traced run's fire observer: it closes the set-up phase
// at the first event and times every event span.
type spanHook struct {
	loopCtx context.Context
	spans   map[string]*eventSpan
	last    *eventSpan
	lastAt  time.Time
	// firstCPU is the process's CPU time at the first event.
	firstCPU time.Duration
	// fired holds every event's simulated time, in firing order.
	fired []sim.Time
}

func newSpanHook() *spanHook {
	return &spanHook{
		loopCtx: pprof.WithLabels(context.Background(), pprof.Labels(phaseKey, phaseLoop)),
		spans:   map[string]*eventSpan{},
	}
}

func (h *spanHook) attach(eng *sim.Engine) { eng.SetFireObserver(h.fire) }

func (h *spanHook) fire(t sim.Time, name string) {
	now := time.Now()
	if h.last == nil {
		pprof.SetGoroutineLabels(h.loopCtx)
		h.firstCPU = processCPU()
	} else {
		h.last.self += now.Sub(h.lastAt)
	}
	s := h.spans[name]
	if s == nil {
		s = &eventSpan{}
		h.spans[name] = s
	}
	s.n++
	h.last, h.lastAt = s, now
	h.fired = append(h.fired, t)
}

// finish closes the last span at the run's return.
func (h *spanHook) finish(end time.Time) {
	if h.last != nil {
		h.last.self += end.Sub(h.lastAt)
	}
}

// firedAfter counts the events that fired later than t on the simulated
// clock.
func (h *spanHook) firedAfter(t float64) int {
	i := sort.Search(len(h.fired), func(i int) bool { return float64(h.fired[i]) > t })
	return len(h.fired) - i
}

// layerKey names one attribution bucket of the profile.
type layerKey struct{ phase, layer string }

// profiled is what one profiled simulation measured.
type profiled struct {
	wall time.Duration
	// run is the process's CPU time from the first event to the return.
	run time.Duration
	// cpu is the process's CPU time while the profile was on.
	cpu time.Duration
	// self is CPU time in nanoseconds per phase and layer (see layerOf).
	self  map[layerKey]int64
	hook  *spanHook
	after int
}

// totalSelf sums every bucket, which is the profile's account of the
// process's CPU time.
func (p *profiled) totalSelf() time.Duration {
	var sum int64
	for _, v := range p.self {
		sum += v
	}
	return time.Duration(sum)
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// profiledIteration runs one simulation under the full fire hook and a
// phase-labelled CPU profile.
func profiledIteration(name string, sh shape, seed int64) (*outcome, *profiled, error) {
	h := newSpanHook()
	setupCtx := pprof.WithLabels(context.Background(), pprof.Labels(phaseKey, phaseSetup))
	runtime.GC()
	var buf bytes.Buffer
	cpu0 := processCPU()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	pprof.SetGoroutineLabels(setupCtx)
	start := time.Now()
	o, err := runWorkload(name, sh, seed, h.attach, trace.Options{})
	end := time.Now()
	endCPU := processCPU()
	pprof.SetGoroutineLabels(context.Background())
	pprof.StopCPUProfile()
	cpu := processCPU() - cpu0
	if err != nil {
		return nil, nil, err
	}
	h.finish(end)
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if h.last == nil {
		return nil, nil, fmt.Errorf("profiled simulation fired no event")
	}
	p := &profiled{wall: end.Sub(start), run: endCPU - h.firstCPU, cpu: cpu, self: map[layerKey]int64{}, hook: h}
	for _, s := range prof.samples {
		k := layerKey{phase: s.labels[phaseKey], layer: layerOf(s.frames)}
		p.self[k] += s.count * prof.periodNS
	}
	p.after = h.firedAfter(o.lastFinish)
	return o, p, nil
}

// reportedLayers are the layers whose loop self time is reported.
var reportedLayers = []string{
	"speculate", "core", "yarn", "engine", "dfs", "net",
	"faults", "elastic", "sim", "runner",
}

// reportedSetupLayers are the layers whose set-up self time is reported.
var reportedSetupLayers = []string{"dfs", "randutil"}

// tracedRun is the --trace 1 run. After a warm-up simulation of --seed it
// repeats cycles until the time budget is spent: one simulation untraced,
// one with the program's own event tracing on, and one under the fire
// hook and the CPU profile. Per-layer figures are means over the profiled
// simulations; overheads compare medians of the cycles' host times.
func tracedRun(name string, sh shape, seed int64, budget time.Duration) (*result, error) {
	var st runStats
	// The warm-up's outcome supplies the model counts.
	base, _, err := timedIteration(name, sh, seed, trace.Options{})
	if err != nil {
		return nil, fmt.Errorf("warm-up simulation: %w", err)
	}
	st.record("warm-up", seed, base)

	self := map[layerKey]int64{}
	spans := map[string]*eventSpan{}
	var plainRuns, tracedRuns, hookRuns []float64
	var plain, traced sample
	var after int
	iters := 0
	start := time.Now()
	for iters == 0 || time.Since(start) < budget {
		o, smp, err := timedIteration(name, sh, seed, trace.Options{})
		if err != nil {
			return nil, fmt.Errorf("untraced simulation: %w", err)
		}
		st.record(fmt.Sprintf("untraced %d", iters), seed, o)
		plain = smp
		plainRuns = append(plainRuns, smp.run.Seconds())

		if o, smp, err = timedIteration(name, sh, seed, trace.Options{Collect: true}); err != nil {
			return nil, fmt.Errorf("program-traced simulation: %w", err)
		}
		st.record(fmt.Sprintf("program-traced %d", iters), seed, o)
		traced = smp
		tracedRuns = append(tracedRuns, smp.run.Seconds())

		o, p, err := profiledIteration(name, sh, seed)
		if err != nil {
			return nil, fmt.Errorf("profiled simulation: %w", err)
		}
		st.record(fmt.Sprintf("profiled %d", iters), seed, o)
		for k, v := range p.self {
			self[k] += v
		}
		for kind, s := range p.hook.spans {
			if !contains(eventKinds, kind) {
				kind = otherKind
			}
			acc := spans[kind]
			if acc == nil {
				acc = &eventSpan{}
				spans[kind] = acc
			}
			acc.n += s.n
			acc.self += s.self
		}
		hookRuns = append(hookRuns, p.run.Seconds())
		after = p.after
		iters++
	}
	per := float64(iters)
	// secs converts summed profile nanoseconds to seconds per iteration.
	secs := func(ns int64) float64 { return float64(ns) / 1e9 / per }

	m := map[string]float64{}
	for _, l := range reportedLayers {
		m[l+".loop_self_s"] = secs(self[layerKey{phaseLoop, l}])
	}
	for _, l := range reportedSetupLayers {
		m[l+".setup_self_s"] = secs(self[layerKey{phaseSetup, l}])
	}
	var gcSelf, otherSelf int64
	for k, v := range self {
		switch {
		case k.layer == gcLayer:
			gcSelf += v
		case k.layer == benchLayer || k.phase == "":
		case k.phase == phaseLoop && contains(reportedLayers, k.layer):
		case k.phase == phaseSetup && contains(reportedSetupLayers, k.layer):
		default:
			otherSelf += v
		}
	}
	m["gc.self_s"] = secs(gcSelf)
	m["other.self_s"] = secs(otherSelf)
	m["bench.hook_self_s"] = secs(self[layerKey{phaseSetup, benchLayer}] + self[layerKey{phaseLoop, benchLayer}])
	m["bench.trace_overhead_s"] = median(hookRuns) - median(plainRuns)

	for _, kind := range eventKinds {
		var s eventSpan
		if acc := spans[kind]; acc != nil {
			s = *acc
		}
		m["event."+kind+".n"] = float64(s.n) / per
		m["event."+kind+".self_s"] = s.self.Seconds() / per
	}

	ev := float64(base.events)
	m["sim.events"] = ev
	m["sim.events_after_finish"] = float64(after)
	m["sim.ns_per_event"] = median(plainRuns) * 1e9 / ev
	m["sim.span_s"] = base.span
	m["sim.job_p50_s"] = base.p50
	m["sim.job_p90_s"] = base.p90
	m["gc.cycles"] = float64(plain.gcCycles)
	m["gc.mallocs_per_event"] = float64(plain.mallocs) / ev
	m["trace.emit_s"] = median(tracedRuns) - median(plainRuns)
	m["trace.allocs_per_event"] = (float64(traced.mallocs) - float64(plain.mallocs)) / ev

	m["speculate.launched"] = float64(base.specLaunched)
	m["speculate.won_frac"] = ratio(float64(base.specWon), float64(base.specLaunched))
	m["core.tasks_sized"] = float64(base.tasksSized)
	m["core.productivity_mean"] = ratio(base.prodSum, float64(base.prodN))
	m["engine.map_attempts"] = float64(base.mapAttempts)
	m["engine.wasted_attempt_frac"] = ratio(float64(base.wasted), float64(base.attempts))
	m["dfs.local_bu_frac"] = ratio(float64(base.localBUs), float64(base.totalBUs))
	m["dfs.remote_mb"] = float64(base.remoteBytes) / mb
	m["net.cross_rack_mb"] = float64(base.crossRackBytes) / mb
	m["elastic.node_hours"] = base.nodeHours
	return newResult(st, m, perLayer)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
