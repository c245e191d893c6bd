package core

import (
	"reflect"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// speedSnapshot is the monitor's visible state sampled just after one
// heartbeat round: per-node IPS estimates plus the derived relative
// speeds the sizer consumes.
type speedSnapshot struct {
	at     sim.Time
	speeds []float64
	rel    []float64
}

// runMonitorScript runs a fixed mixed workload — staggered local
// attempts on heterogeneous nodes, one node going down mid-run — and
// samples the monitor right after every heartbeat sweep. The samples
// capture exactly what the batched round pushed into each node's IPS
// window, so any reordering or drift inside the per-shard sweep shows
// up as a differing series.
func runMonitorScript(t *testing.T, shards int) []speedSnapshot {
	t.Helper()
	specs := make([]cluster.NodeSpec, 12)
	for i := range specs {
		specs[i] = cluster.NodeSpec{BaseSpeed: []float64{1, 2, 4}[i%3], Slots: 2}
	}
	eng := sim.NewSharded(shards)
	c := cluster.NewCluster("mon-equiv", specs)
	store := dfs.NewStore(c, len(specs), randutil.New(3))
	if _, err := store.AddFile("input", 256*dfs.BUSize); err != nil {
		t.Fatal(err)
	}
	rm := yarn.NewRM(eng, c)
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1, ShuffleRatio: 0, ReduceCost: 0}
	d, err := engine.NewDriver(eng, c, store, rm, engine.DefaultCostModel(), spec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSpeedMonitor(d)

	f, _ := store.File("input")
	next := 0
	launch := func(node cluster.NodeID, bus int) {
		n := c.Node(node)
		d.LaunchMap(engine.MapLaunch{
			Task:      "manual",
			Node:      n,
			Container: rm.Acquire(n),
			BUs:       f.BUs[next : next+bus],
			LocalBUs:  bus,
			OnDone:    func(a *engine.MapAttempt) { a.Container.Release() },
		})
		next += bus
	}
	// Staggered launches keep a changing mix of nodes busy across rounds.
	for i := 0; i < 12; i++ {
		id, delay, bus := cluster.NodeID(i), sim.Duration(i), 4+i%5
		eng.After(delay, "launch", func() { launch(id, bus) })
	}
	// One node drops mid-run: its window must reset identically.
	eng.At(22, "crash", func() { c.Node(5).SetDown(true); m.ResetNode(5) })

	var snaps []speedSnapshot
	for tick := sim.Time(HeartbeatPeriod); tick <= 60; tick += sim.Time(HeartbeatPeriod) {
		at := tick
		// Probes schedule after the same-instant heartbeat event (larger
		// seq), so they observe the freshly swept windows.
		eng.At(at, "probe", func() {
			speeds := make([]float64, c.Size())
			for i := range speeds {
				speeds[i] = m.GetSpeed(cluster.NodeID(i))
			}
			rel := append([]float64(nil), m.RelativeSpeeds()...)
			snaps = append(snaps, speedSnapshot{at: at, speeds: speeds, rel: rel})
		})
	}
	eng.RunUntil(70)
	m.Stop()
	eng.Run()
	return snaps
}

// TestMonitorSweepShardInvariance requires the batched heartbeat sweep
// to fill every node's IPS window with the same samples, in the same
// rounds, at any shard count.
func TestMonitorSweepShardInvariance(t *testing.T) {
	want := runMonitorScript(t, 1)
	nonzero := false
	for _, s := range want {
		for _, v := range s.speeds {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("script produced no speed samples — harness is not exercising the sweep")
	}
	for _, shards := range []int{2, 4, 8} {
		got := runMonitorScript(t, shards)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: monitor sample series differs from serial", shards)
		}
	}
}
