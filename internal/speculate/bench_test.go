package speculate

import (
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/engine"
)

// BenchmarkSelectVictim measures one LATE probe that misses the victim
// memo, at the scale of a 5000-node FlexMap job's final wave: about 3300
// running candidates, half of them past MinAge. The candidate epoch moves
// every iteration, so each probe re-ranks the whole set as it does after
// every launch or completion.
func BenchmarkSelectVictim(b *testing.B) {
	const nodes = 1650
	speeds := make([]float64, nodes)
	for i := range speeds {
		speeds[i] = []float64{1.0, 1.5, 2.4, 2.8}[i%4]
	}
	f := newAttemptFleet(b, speeds)
	cands := make([]*engine.MapAttempt, 0, 2*nodes)
	for i := 0; i < nodes; i++ {
		cands = append(cands, f.launch(cluster.NodeID(i), 16, i))
	}
	f.eng.RunUntil(5)
	for i := 0; i < nodes; i++ {
		cands = append(cands, f.launch(cluster.NodeID(i), 16, nodes+i))
	}
	f.eng.RunUntil(6)
	l := NewLATE()
	probe := f.c.Node(nodes - 1) // a fast node: never excluded as slow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Pick(f.d, probe, cands, uint64(i), 0)
	}
}
