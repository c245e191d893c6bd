package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// A timed run simulates minSubSeeds inputs derived from --seed, and more
// while its time budget lasts, then repeats the first one to check that
// it reproduces exactly. Host times are the process's CPU time, not wall
// time: on a shared host the process waits for a processor in spells that
// can double a simulation's wall time, and CPU time does not count those
// waits. Other tenants also slow the processor itself, so the run
// calibrates the host before the set-up probes and after them and after
// every simulation, and scales its CPU times to the reference speed by the
// mean calibration (see calibrate.go). The set-up and run times are means
// too: calibrations alternate with simulations, so a change of speed
// inside the run moves both means in proportion, where a median would
// pick a side. On fleet, five runs' ratio of means spread by 1%, their
// ratio of medians by 6%, and their raw CPU times by 17%. Allocation
// barely varies for one input, so it is a mean over the inputs, which
// evens out costly draws; the peak heap is sampled, so it is a median over
// the simulations. The simulated figure is the mean over the first
// minSubSeeds inputs, which every run simulates, so it depends on --seed
// alone.
//
// Before that, set-up is timed on its own at least minSetupProbes times
// and for at least setupProbeBudget.
const (
	minSubSeeds      = 5
	minSetupProbes   = 5
	setupProbeBudget = 2 * time.Second
)

// subSeed derives the k-th input seed of a run; the first is --seed
// itself.
func subSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return randutil.DeriveSeed(seed, k)
}

// sample is the host-side cost of one simulation.
type sample struct {
	// setup and run are process CPU time (see processCPU).
	setup, run time.Duration
	allocBytes uint64
	peakHeap   uint64
	mallocs    uint64
	gcCycles   uint32
}

// timedIteration runs one simulation with no tracing beyond a one-shot
// fire observer, which stamps the end of set-up and removes itself.
func timedIteration(name string, sh shape, seed int64, tr trace.Options) (*outcome, sample, error) {
	first := time.Duration(-1)
	hook := func(eng *sim.Engine) {
		eng.SetFireObserver(func(sim.Time, string) {
			first = processCPU()
			eng.SetFireObserver(nil)
		})
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := startHeapWatch()
	start := processCPU()
	o, err := runWorkload(name, sh, seed, hook, tr)
	end := processCPU()
	peak := w.stop()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, sample{}, err
	}
	if first < 0 {
		first = end
	}
	return o, sample{
		setup:      first - start,
		run:        end - first,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		peakHeap:   peak,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
	}, nil
}

// setupProbe times set-up alone: the engine stops at its first event, and
// the runner's resulting "did not finish" error is expected.
func setupProbe(name string, sh shape, seed int64) (time.Duration, error) {
	first := time.Duration(-1)
	hook := func(eng *sim.Engine) {
		eng.SetFireObserver(func(sim.Time, string) {
			first = processCPU()
			eng.Stop()
		})
	}
	runtime.GC()
	start := processCPU()
	_, err := runWorkload(name, sh, seed, hook, trace.Options{})
	if first < 0 {
		if err == nil {
			err = errors.New("no event fired")
		}
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return first - start, nil
}

// heapWatch samples the live heap (the bytes the last garbage collection
// found reachable) from a separate goroutine while a simulation runs, and
// keeps the largest value seen. The heap in use would include garbage not
// yet collected, whose peak depends on when the collector gets the one
// processor, and so on the host's speed: on jobs it read 7 MB in one run
// and 8.2 MB in another.
type heapWatch struct {
	done chan struct{}
	peak chan uint64
}

const heapWatchPeriod = 5 * time.Millisecond

func startHeapWatch() *heapWatch {
	w := &heapWatch{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapWatchPeriod)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-w.done:
				w.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and returns the peak; the goroutine has exited when
// it returns.
func (w *heapWatch) stop() uint64 {
	close(w.done)
	return <-w.peak
}

// runStats accumulates a run's outcomes and correctness verdict.
type runStats struct {
	attempted, failed int
	violations        []string
	// fingerprints holds the first outcome seen per sub-seed; every later
	// simulation of that sub-seed must repeat it exactly.
	fingerprints map[int64][5]float64
}

// record checks one outcome and folds it into the run's totals.
func (r *runStats) record(label string, seed int64, o *outcome) {
	r.attempted += o.jobs
	r.failed += o.failedJobs
	for _, v := range o.violations {
		r.violations = append(r.violations, label+": "+v)
	}
	if r.fingerprints == nil {
		r.fingerprints = map[int64][5]float64{}
	}
	fp := o.fingerprint()
	if prev, ok := r.fingerprints[seed]; !ok {
		r.fingerprints[seed] = fp
	} else if prev != fp {
		r.violations = append(r.violations, fmt.Sprintf(
			"%s: determinism: seed %d gave span/p50/p90/slot-seconds/events %v, earlier %v", label, seed, fp, prev))
	}
}

// recordError counts an errored simulation's jobs as failed.
func (r *runStats) recordError(label string, jobs int, err error) {
	r.attempted += jobs
	r.failed += jobs
	r.violations = append(r.violations, fmt.Sprintf("%s: run-error: %v", label, err))
}

// jobsPerRun is the number of jobs one simulation of the workload submits.
func jobsPerRun(name string, sh shape) int {
	if name == "jobs" {
		return sh.jobsCount
	}
	return 1
}

// timedRun is the --trace 0 run.
func timedRun(name string, sh shape, seed int64, budget time.Duration) (*result, error) {
	var setups, runs, cals, peaks []float64
	calibrateOnce := func() { cals = append(cals, calibrate().Seconds()) }
	calibrateOnce()
	start := time.Now()
	for i := 0; i < minSetupProbes || time.Since(start) < setupProbeBudget; i++ {
		d, err := setupProbe(name, sh, subSeed(seed, i%minSubSeeds))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	calibrateOnce()
	fmt.Fprintf(os.Stderr, "  %d set-up probes: CPU mean %.4fs, calibration %.4fs and %.4fs\n", len(setups), mean(setups), cals[0], cals[1])

	var st runStats
	var samples [][]sample // per sub-seed
	var outcomes []*outcome
	simulate := func(k int) {
		for len(samples) <= k {
			samples = append(samples, nil)
			outcomes = append(outcomes, nil)
		}
		s := subSeed(seed, k)
		label := fmt.Sprintf("seed %d", s)
		o, smp, err := timedIteration(name, sh, s, trace.Options{})
		calibrateOnce()
		if err != nil {
			st.recordError(label, jobsPerRun(name, sh), err)
			return
		}
		st.record(label, s, o)
		fmt.Fprintf(os.Stderr, "  %s: CPU setup %.4fs run %.4fs, calibration %.4fs; alloc %.1fMB peak %.1fMB events %d\n",
			label, smp.setup.Seconds(), smp.run.Seconds(), cals[len(cals)-1],
			float64(smp.allocBytes)/mb, float64(smp.peakHeap)/mb, o.events)
		setups = append(setups, smp.setup.Seconds())
		runs = append(runs, smp.run.Seconds())
		peaks = append(peaks, float64(smp.peakHeap)/mb)
		samples[k] = append(samples[k], smp)
		if outcomes[k] == nil {
			outcomes[k] = o
		}
	}
	start = time.Now()
	for k := 0; k < minSubSeeds || time.Since(start) < budget; k++ {
		simulate(k)
	}
	simulate(0)

	var slotSecsPerGB []float64
	for _, o := range outcomes[:minSubSeeds] {
		if o != nil {
			slotSecsPerGB = append(slotSecsPerGB, o.slotSecsPerGB())
		}
	}
	if len(slotSecsPerGB) == 0 {
		return nil, fmt.Errorf("%s: every simulation failed: %v", name, st.violations)
	}
	scale := calibrationReference.Seconds() / mean(cals)
	fmt.Fprintf(os.Stderr, "  CPU times x %.4f: calibration took %.4fs (mean of %d)\n", scale, mean(cals), len(cals))
	m := map[string]float64{
		"setup_s":           mean(setups) * scale,
		"run_s":             mean(runs) * scale,
		"alloc_mb":          meanOfMedians(samples, func(s sample) float64 { return float64(s.allocBytes) / mb }),
		"peak_heap_mb":      median(peaks),
		"sim_slot_s_per_gb": mean(slotSecsPerGB),
	}
	return newResult(st, m, endToEnd)
}

// meanOfMedians is the mean over groups of the median of f within each
// group; empty groups are skipped.
func meanOfMedians(groups [][]sample, f func(sample) float64) float64 {
	var meds []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		vs := make([]float64, len(g))
		for i, s := range g {
			vs[i] = f(s)
		}
		meds = append(meds, median(vs))
	}
	return mean(meds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

const mb = 1 << 20

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
