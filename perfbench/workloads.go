package main

import (
	"errors"
	"fmt"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/elastic"
	"flexmap/internal/faults"
	"flexmap/internal/metrics"
	"flexmap/internal/mr"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
	"flexmap/internal/workload"
)

// shape sizes the three workloads. fullShape is the benchmark; tinyShape
// keeps the self-tests to a fraction of a second.
type shape struct {
	fleetNodes, fleetBUsPerNode int
	jobsNodes, jobsCount        int
	churnNodes, churnBUsPerNode int
	churnSpares                 int
}

var (
	fullShape = shape{
		fleetNodes: 5000, fleetBUsPerNode: 8,
		jobsNodes: 200, jobsCount: 40,
		churnNodes: 2000, churnBUsPerNode: 24, churnSpares: 200,
	}
	tinyShape = shape{
		fleetNodes: 60, fleetBUsPerNode: 8,
		jobsNodes: 20, jobsCount: 12,
		churnNodes: 60, churnBUsPerNode: 24, churnSpares: 6,
	}
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"fleet", "jobs", "churn"}

// Fixed workload parameters. The jobs workload is flexbench's workload
// cell at a third of the jobs: 40 WordCount jobs arriving at 24/s, so all
// of them overlap. At 120 jobs one simulation took 11–16 s of host time,
// and at 60 about 4.5 s: too few per run for a median to find the host's
// typical speed.
const (
	jobsRate       = 24
	jobsReducers   = 4
	jobsMinBUs     = 8
	jobsMaxBUs     = 24
	churnRackHosts = 20
	churnOversub   = 4
	defaultSeed    = 42
)

// baseSpeeds cycles the paper testbed's four machine generations (Table I).
var baseSpeeds = []float64{1.0, 1.5, 2.4, 2.8}

// engineHook receives the simulation engine of a run before its first
// event fires. It is reached through the cluster factory's Interferer,
// the one place a caller of runner.Run/RunWorkload is handed the engine.
// None of the workloads has an interferer of its own; one that did would
// need this one to wrap it.
type engineHook func(*sim.Engine)

// hookInterferer hands the engine to a hook and perturbs nothing.
type hookInterferer struct{ hook engineHook }

func (h *hookInterferer) Start(eng *sim.Engine) { h.hook(eng) }

func (h *hookInterferer) Stop() {}

// heteroCluster builds n two-slot nodes with flexbench's heterogeneous
// speed cycle, optionally racked behind an oversubscribed core.
func heteroCluster(n int, topo *cluster.TopologySpec, hook engineHook) runner.ClusterFactory {
	return func() (*cluster.Cluster, cluster.Interferer) {
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.NodeSpec{
				Name:      fmt.Sprintf("bench-%04d", i),
				BaseSpeed: baseSpeeds[i%len(baseSpeeds)],
				Slots:     2,
			}
		}
		c := cluster.NewCluster(fmt.Sprintf("bench-%d", n), specs)
		if topo != nil {
			t := *topo
			c.Topology = &t
		}
		return c, &hookInterferer{hook: hook}
	}
}

// outcome is what one simulation produced, reduced to the benchmark's
// simulated metrics, model counts and correctness verdict.
type outcome struct {
	jobs, failedJobs int
	// violations names each failed correctness check.
	violations []string

	span, p50, p90 float64 // simulated seconds
	lastFinish     float64 // simulated time of the last job completion
	events         uint64

	attempts, mapAttempts, wasted int
	specLaunched, specWon         int
	localBUs, totalBUs            int
	prodSum                       float64
	prodN                         int
	tasksSized                    int
	remoteBytes, crossRackBytes   int64
	nodeHours                     float64
	// busySlotSecs is the simulated container time of every attempt,
	// wasted ones included; inputBytes is the input of every job.
	busySlotSecs float64
	inputBytes   int64
}

// slotSecsPerGB is the simulated container time the input cost per GB.
func (o *outcome) slotSecsPerGB() float64 {
	return o.busySlotSecs / (float64(o.inputBytes) / (1 << 30))
}

// fingerprint is the part of an outcome that must repeat exactly for one
// workload and seed.
func (o *outcome) fingerprint() [5]float64 {
	return [5]float64{o.span, o.p50, o.p90, o.busySlotSecs, float64(o.events)}
}

// addJob folds one job's result into the outcome and checks that every
// input block unit was committed exactly once if the job succeeded.
func (o *outcome) addJob(id string, res *mr.JobResult, inputBytes int64, commits map[dfs.BUID]int, failed bool) {
	o.jobs++
	o.inputBytes += inputBytes
	for _, a := range res.Attempts {
		o.attempts++
		o.busySlotSecs += float64(a.End - a.Start)
		if a.Killed || a.Crashed {
			o.wasted++
		}
		if a.Speculative && !a.Killed && !a.Crashed {
			o.specWon++
		}
		if a.Type != mr.MapTask {
			continue
		}
		o.mapAttempts++
		o.localBUs += a.LocalBUs
		o.totalBUs += a.BUs
		if !a.Killed && !a.Crashed {
			o.prodSum += a.Productivity()
			o.prodN++
		}
	}
	o.specLaunched += res.SpeculativeLaunches
	o.remoteBytes += res.RemoteBytesRead
	if failed {
		o.failedJobs++
		return
	}
	want := int((inputBytes + dfs.BUSize - 1) / dfs.BUSize)
	if len(commits) != want {
		o.violations = append(o.violations, fmt.Sprintf("bu-commits/%s: %d of %d input BUs committed", id, len(commits), want))
		return
	}
	for _, bu := range sortedBUs(commits) {
		if n := commits[bu]; n != 1 {
			o.violations = append(o.violations, fmt.Sprintf("bu-commits/%s: BU %d committed %d times", id, bu, n))
			return
		}
	}
}

func sortedBUs(m map[dfs.BUID]int) []dfs.BUID {
	ids := make([]dfs.BUID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// setLatencies records the span and the sojourn percentiles of the jobs
// that completed.
func (o *outcome) setLatencies(span float64, sojourns []float64) {
	o.span = span
	sort.Float64s(sojourns)
	o.p50 = metrics.Percentile(sojourns, 0.50)
	o.p90 = metrics.Percentile(sojourns, 0.90)
}

// runWorkload executes one simulation of the named workload. hook, when
// non-nil, receives the engine before the first event; tr selects the
// program's own event tracing. A job that fails is an outcome; any other
// error from the runner is returned.
func runWorkload(name string, sh shape, seed int64, hook engineHook, tr trace.Options) (*outcome, error) {
	switch name {
	case "fleet":
		n := sh.fleetNodes
		sc := runner.Scenario{
			Name:      "fleet",
			Cluster:   heteroCluster(n, nil, hook),
			Seed:      seed,
			InputSize: int64(n) * int64(sh.fleetBUsPerNode) * dfs.BUSize,
			Trace:     tr,
		}
		return runSingle(sc, n, runner.FlexMap)
	case "churn":
		n := sh.churnNodes
		sc := runner.Scenario{
			Name:      "churn",
			Cluster:   heteroCluster(n, &cluster.TopologySpec{HostsPerRack: churnRackHosts, Oversub: churnOversub}, hook),
			Seed:      seed,
			InputSize: int64(n) * int64(sh.churnBUsPerNode) * dfs.BUSize,
			Faults:    faults.Plan{CrashRate: 1},
			Membership: elastic.Plan{
				Spares: sh.churnSpares, JoinsPerHour: 60, LeavesPerHour: 30, SpotFraction: 0.5,
			},
			Trace: tr,
		}
		return runSingle(sc, n, runner.Hadoop)
	case "jobs":
		return runJobs(sh, seed, hook, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runSingle runs one WordCount job with n/4 reducers.
func runSingle(sc runner.Scenario, n int, kind runner.EngineKind) (*outcome, error) {
	spec, err := puma.Spec(puma.WordCount, "input", n/4)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(sc, spec, runner.Engine{Kind: kind})
	failed := false
	var jf *runner.JobFailedError
	if errors.As(err, &jf) {
		res, failed, err = jf.Result, true, nil
	}
	if err != nil {
		return nil, err
	}
	o := &outcome{events: res.SimEvents, nodeHours: res.NodeHours, crossRackBytes: res.CrossRackBytes}
	o.tasksSized = len(res.SizeTrace)
	o.addJob(spec.Name, res.JobResult, sc.InputSize, res.BUCommits, failed)
	o.lastFinish = float64(res.Finished)
	var sojourns []float64
	if !failed {
		sojourns = []float64{float64(res.Finished - res.Submitted)}
	}
	o.setLatencies(float64(res.Finished), sojourns)
	return o, nil
}

// runJobs runs the multi-job workload: Poisson arrivals of stock Hadoop
// WordCount jobs with LATE, arbitrated by the fair inter-job policy.
func runJobs(sh shape, seed int64, hook engineHook, tr trace.Options) (*outcome, error) {
	spec, err := puma.Spec(puma.WordCount, "input", jobsReducers)
	if err != nil {
		return nil, err
	}
	sc := runner.WorkloadScenario{
		Name:    "jobs",
		Cluster: heteroCluster(sh.jobsNodes, nil, hook),
		Seed:    seed,
		Pattern: workload.Pattern{Jobs: sh.jobsCount, Rate: jobsRate},
		Classes: []runner.WorkloadClass{{
			Name: "wordcount", Weight: 1,
			MinBytes: jobsMinBUs * dfs.BUSize, MaxBytes: jobsMaxBUs * dfs.BUSize,
			Engine: runner.Engine{Kind: runner.Hadoop}, Spec: spec,
		}},
		Policy: "fair",
		Trace:  tr,
	}
	res, err := runner.RunWorkload(sc)
	if err != nil {
		return nil, err
	}
	o := &outcome{events: res.SimEvents, nodeHours: res.NodeHours, crossRackBytes: res.CrossRackBytes}
	var sojourns []float64
	for _, j := range res.Jobs {
		if j.Result == nil {
			o.jobs++
			o.failedJobs++
			o.violations = append(o.violations, fmt.Sprintf("job-outcome/%s: job never finished", j.ID))
			continue
		}
		o.addJob(j.ID, j.Result, j.InputBytes, j.BUCommits, j.Failed)
		if !j.Failed {
			sojourns = append(sojourns, float64(j.Latency))
		}
		if float64(j.Finished) > o.lastFinish {
			o.lastFinish = float64(j.Finished)
		}
	}
	if o.jobs != sh.jobsCount {
		o.violations = append(o.violations, fmt.Sprintf("job-outcome: %d of %d jobs reported", o.jobs, sh.jobsCount))
	}
	o.setLatencies(float64(res.Span), sojourns)
	return o, nil
}
