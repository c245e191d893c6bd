package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-tests run every workload at tinyShape, where a simulation takes
// milliseconds.

// TestCatalogMatchesBenchmarkJSON pins the metric tables to the
// benchmark's declaration at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark prints %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, d := range want {
			units[d.name] = d.unit
		}
		for _, g := range got {
			if u, ok := units[g.Name]; !ok {
				t.Errorf("%s: %s is declared but not printed", kind, g.Name)
			} else if u != g.Unit {
				t.Errorf("%s: %s declared in %q, printed in %q", kind, g.Name, g.Unit, u)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// printed round-trips a result through its JSON line and checks that it
// is correct and carries exactly defs, each with its unit.
func printed(t *testing.T, r *result, defs []metricDef) map[string]float64 {
	t.Helper()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d violations=%v", out.Correct, out.Attempted, out.Failed, r.violations)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(defs))
	}
	values := map[string]float64{}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s printed in %q, want %q", d.name, m.Unit, d.unit)
		}
		values[d.name] = m.Value
	}
	return values
}

func TestTimedRunPrintsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			// A budget long enough for a second round, so the determinism
			// check compares repeated simulations of each sub-seed.
			r, err := timedRun(name, tinyShape, 7, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			m := printed(t, r, endToEnd)
			for _, d := range endToEnd {
				if m[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, m[d.name])
				}
			}
		})
	}
}

func TestTracedRunAccounting(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, err := tracedRun(name, tinyShape, 7, time.Nanosecond)
			if err != nil {
				t.Fatal(err)
			}
			m := printed(t, r, perLayer)
			var n float64
			for _, d := range perLayer {
				if strings.HasPrefix(d.name, "event.") && strings.HasSuffix(d.name, ".n") {
					n += m[d.name]
				}
			}
			if n != m["sim.events"] || n == 0 {
				t.Errorf("event spans count %v events, sim.events = %v", n, m["sim.events"])
			}
		})
	}
}

// TestLayerSelfTimesSumToProfiledTime checks that the profile accounts
// for the profiled time: every sample lands in exactly one layer bucket,
// so the buckets sum to the process's CPU time over the profiled window.
// On an idle machine that CPU time is the profiled wall time plus the
// collector's parallel work; on a shared one the simulating goroutine
// also waits for a processor, which wall time counts and CPU time does
// not, so the comparison is with CPU time. Each profile misses up to one
// sampling period at its start, so this test simulates a fleet large
// enough to run for a few hundred milliseconds.
func TestLayerSelfTimesSumToProfiledTime(t *testing.T) {
	sh := tinyShape
	sh.fleetNodes = 1000
	var wall, cpu, self time.Duration
	for wall < 2*time.Second {
		_, p, err := profiledIteration("fleet", sh, int64(wall))
		if err != nil {
			t.Fatal(err)
		}
		wall += p.wall
		cpu += p.cpu
		self += p.totalSelf()
	}
	// 100 Hz sampling over two seconds gives about 200 samples: a few
	// percent of counting error, plus the periods lost at each start.
	d := (self - cpu).Seconds() / cpu.Seconds()
	t.Logf("layer self times %v, process CPU %v, wall %v", self, cpu, wall)
	if d < -0.15 || d > 0.15 {
		t.Errorf("layer self times sum to %v over %v of process CPU time (%+.1f%%)", self, cpu, 100*d)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.Float64s", "flexmap/internal/speculate.(*LATE).selectVictim", "flexmap/internal/engine.(*Driver).tick"}, "speculate"},
		{[]string{"runtime.mallocgc", "flexmap/internal/core.(*AM).fairShare.func1"}, "core"},
		{[]string{"time.Now", "main.(*spanHook).fire", "flexmap/internal/sim.(*Engine).RunUntil"}, benchLayer},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, gcLayer},
		{[]string{"flexmap/internal/maputil.SortedKeys[...]"}, "maputil"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestDeterminismViolationIsNamed(t *testing.T) {
	var st runStats
	st.record("first", 1, &outcome{jobs: 1, span: 10, events: 5})
	st.record("again", 1, &outcome{jobs: 1, span: 10, events: 6})
	if len(st.violations) != 1 || !strings.Contains(st.violations[0], "determinism") {
		t.Fatalf("violations = %v, want one determinism violation", st.violations)
	}
}
