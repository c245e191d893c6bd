package core

import (
	"math"
	"math/rand"
	"testing"

	"flexmap/internal/cluster"
)

// windowSpeeds is the reference the cached means replace: each cluster
// node's window mean recomputed from its ring, 0 when it has none.
func windowSpeeds(m *SpeedMonitor) []float64 {
	nodes := m.driver.Cluster.Nodes
	sp := make([]float64, len(nodes))
	for i, n := range nodes {
		if int(n.ID) < len(m.samples) {
			sp[i] = m.samples[n.ID].mean()
		}
	}
	return sp
}

// referenceRatios recomputes RelativeSpeeds/NormalizedCapacities from
// windowSpeeds the way the map-returning versions did.
func referenceRatios(sp []float64) (rel, caps []float64) {
	slowest, fastest := 0.0, 0.0
	for _, s := range sp {
		if s > 0 && (slowest == 0 || s < slowest) {
			slowest = s
		}
		if s > fastest {
			fastest = s
		}
	}
	rel, caps = make([]float64, len(sp)), make([]float64, len(sp))
	for i, s := range sp {
		rel[i], caps[i] = 1.0, 1.0
		if s > 0 && slowest > 0 {
			rel[i] = s / slowest
		}
		if s > 0 && fastest > 0 {
			caps[i] = s / fastest
		}
	}
	return rel, caps
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMonitorCachedMeansMatchWindows runs random push/ResetNode
// sequences — including spares added after the monitor was built and
// IDs past the cluster — and requires, after every step, the cached
// means to be bit-equal to the ring means, and RelativeSpeeds and
// NormalizedCapacities to equal the recompute from the windows, with 1.0
// for every unmeasured node.
func TestMonitorCachedMeansMatchWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := newMonitorHarness(t, []cluster.NodeSpec{{}, {}, {}, {}, {}, {}})
	m := NewSpeedMonitor(h.driver)
	defer m.Stop()
	h.clus.AddSpares(3, cluster.NodeSpec{})
	const idSpan = 12 // the cluster has 9 nodes; IDs 9–11 are outside it
	for step := 0; step < 3000; step++ {
		id := cluster.NodeID(rng.Intn(idSpan))
		if rng.Intn(6) == 0 {
			m.ResetNode(id - 1) // covers -1 too
		} else {
			m.push(id, float64(1+rng.Intn(4))*10e6*(1+rng.Float64()))
		}
		for i := range m.samples {
			want := m.samples[i].mean()
			if got := m.GetSpeed(cluster.NodeID(i)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: GetSpeed(%d) = %v, window mean %v", step, i, got, want)
			}
		}
		if m.GetSpeed(cluster.NodeID(len(m.samples))) != 0 || m.GetSpeed(-1) != 0 {
			t.Fatalf("step %d: GetSpeed outside the windows is not 0", step)
		}
		if step%7 != 0 {
			continue // also let the epoch move several times between reads
		}
		sp := windowSpeeds(m)
		wantRel, wantCaps := referenceRatios(sp)
		if got := m.RelativeSpeeds(); !bitsEqual(got, wantRel) {
			t.Fatalf("step %d: RelativeSpeeds = %v, want %v", step, got, wantRel)
		}
		if got := m.NormalizedCapacities(); !bitsEqual(got, wantCaps) {
			t.Fatalf("step %d: NormalizedCapacities = %v, want %v", step, got, wantCaps)
		}
		for i, s := range sp {
			if s == 0 && (m.RelativeSpeeds()[i] != 1 || m.NormalizedCapacities()[i] != 1) {
				t.Fatalf("step %d: unmeasured node %d is not 1.0", step, i)
			}
		}
	}
}

// TestAMRelativeSpeedOutsideCluster: the autoscaler's speed hook returns
// 0 for an ID the cluster does not have, as a missing map key did.
func TestAMRelativeSpeedOutsideCluster(t *testing.T) {
	c := cluster.NewCluster("rs", []cluster.NodeSpec{{Slots: 2}, {Slots: 2}})
	am := newIdleAM(t, c, 16)
	am.monitor.push(0, 20e6)
	am.monitor.push(1, 10e6)
	if got := am.RelativeSpeed(0); got != 2 {
		t.Fatalf("RelativeSpeed(0) = %v, want 2", got)
	}
	for _, id := range []cluster.NodeID{2, 100, -1} {
		if got := am.RelativeSpeed(id); got != 0 {
			t.Fatalf("RelativeSpeed(%d) = %v, want 0", id, got)
		}
	}
}
