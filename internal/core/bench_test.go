package core

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// benchMonitor builds a SpeedMonitor over an n-node cluster with every
// node's IPS window full — the state every mid-job dispatch sees.
func benchMonitor(b *testing.B, n int) *SpeedMonitor {
	b.Helper()
	eng := sim.New()
	specs := make([]cluster.NodeSpec, n)
	for i := range specs {
		specs[i] = cluster.NodeSpec{BaseSpeed: 1 + float64(i%4), Slots: 2}
	}
	c := cluster.NewCluster("bench", specs)
	store := dfs.NewStore(c, 3, randutil.New(1))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		b.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1}
	d, err := engine.NewDriver(eng, c, store, yarn.NewRM(eng, c), engine.DefaultCostModel(), spec)
	if err != nil {
		b.Fatal(err)
	}
	m := NewSpeedMonitor(d)
	for i := 0; i < n; i++ {
		for k := 0; k < ipsWindow; k++ {
			m.push(cluster.NodeID(i), float64(1+i%4)*10e6+float64(k))
		}
	}
	return m
}

// fleetNodes is the benchmark workload fleet's cluster size.
const fleetNodes = 5000

// BenchmarkRelativeSpeeds measures the relative-speed recompute that
// OnSlotFree and fairShare pay whenever a heartbeat report has moved the
// monitor epoch: each iteration pushes one sample first, so every call
// recomputes instead of hitting the epoch cache.
func BenchmarkRelativeSpeeds(b *testing.B) {
	m := benchMonitor(b, fleetNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(cluster.NodeID(i%fleetNodes), float64(1+i%4)*10e6)
		if rel := m.RelativeSpeeds(); len(rel) != fleetNodes {
			b.Fatal("short slice")
		}
	}
}

// BenchmarkNormalizedCapacities measures the reduce-placement capacity
// recompute after a new heartbeat report, like BenchmarkRelativeSpeeds.
func BenchmarkNormalizedCapacities(b *testing.B) {
	m := benchMonitor(b, fleetNodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(cluster.NodeID(i%fleetNodes), float64(1+i%4)*10e6)
		if caps := m.NormalizedCapacities(); len(caps) != fleetNodes {
			b.Fatal("short slice")
		}
	}
}

// BenchmarkMonitorPush measures one heartbeat sample insertion.
func BenchmarkMonitorPush(b *testing.B) {
	m := benchMonitor(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.push(cluster.NodeID(i%8), float64(i))
	}
}
