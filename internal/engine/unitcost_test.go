package engine

import (
	"math"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/randutil"
)

// TestUnitCostStoredAtLaunch pins the per-byte cost LaunchMap stores to
// the expression Progress/EstRemaining used to re-evaluate on every call:
// map cost × spill multiplier × noise × mean BU weight, bit for bit. It
// covers a skewed store and a file added after ApplySkew (the workload
// runner adds job inputs mid-run), whose BUs carry the default weight.
func TestUnitCostStoredAtLaunch(t *testing.T) {
	const sigma = 0.6
	h := newHarness(t, cluster.Homogeneous(4), 32, wcSpec(0))
	h.store.ApplySkew(randutil.New(3), sigma)
	late, err := h.store.AddFile("late", 8*dfs.BUSize)
	if err != nil {
		t.Fatal(err)
	}
	d := h.driver
	d.Noise, d.NoiseSigma = randutil.New(5), 0.4
	noise := randutil.New(5) // replays d.Noise's draws
	early, _ := h.store.File("input")

	splits := [][]dfs.BUID{
		early.BUs[:1], early.BUs[1:4], early.BUs[4:12], early.BUs[12:32],
		late.BUs[:3], late.BUs[3:8],
		{early.BUs[0], late.BUs[0], early.BUs[31]},
	}
	for i, bus := range splits {
		node := h.clus.Node(cluster.NodeID(i % 4))
		a := d.LaunchMap(MapLaunch{Task: "t", Node: node, BUs: bus, LocalBUs: len(bus)})
		mult := math.Exp(d.NoiseSigma*noise.NormFloat64() - d.NoiseSigma*d.NoiseSigma/2)
		want := d.Spec.MapCost * d.Cost.SpillMultiplier(a.Bytes) * mult * h.store.MeanWeight(a.BUs)
		if math.Float64bits(a.unit) != math.Float64bits(want) {
			t.Fatalf("split %d: stored unit cost %v, want %v", i, a.unit, want)
		}
	}
	if w := h.store.MeanWeight(late.BUs); w != 1 {
		t.Fatalf("file added after ApplySkew has mean weight %v, want 1", w)
	}
}
