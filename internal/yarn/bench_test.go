package yarn

import (
	"fmt"
	"testing"

	"flexmap/internal/cluster"
)

// declineJob turns down every offer without allocating.
type declineJob struct{}

func (declineJob) OnSlotFree(*cluster.Node) bool { return false }

// offerFixture submits jobs that all decline to a 200-node cluster, the
// shape of the jobs benchmark workload.
func offerFixture(p Policy, jobs int) (*InterJob, []*JobHandle) {
	_, _, ij := muxFixture(200, p)
	hs := make([]*JobHandle, jobs)
	for i := range hs {
		hs[i] = ij.Submit(fmt.Sprintf("j%d", i), i%2, declineJob{})
	}
	return ij, hs
}

// nudge moves one job's running count by ±1 before offer i, as a grant
// or release elsewhere would.
func nudge(hs []*JobHandle, i int) {
	h := hs[i*7%len(hs)]
	if h.running > 0 && i&1 == 1 {
		h.running--
	} else {
		h.running++
	}
}

// BenchmarkInterJobOffer measures one declined offer across 40 jobs on a
// 200-node cluster, with one job's running count moving by ±1 before
// each offer as grants and releases elsewhere move it.
func BenchmarkInterJobOffer(b *testing.B) {
	capacity, err := NewCapacityPolicy([]Queue{{Name: "a", Share: 0.5}, {Name: "b", Share: 0.5}})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []Policy{FairPolicy{}, FIFOPolicy{}, capacity} {
		b.Run(p.Name(), func(b *testing.B) {
			ij, hs := offerFixture(p, 40)
			nodes := ij.rm.cluster.Nodes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nudge(hs, i)
				ij.OnSlotFree(nodes[i%len(nodes)])
			}
		})
	}
}
