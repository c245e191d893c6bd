package speculate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/dfs"
	"flexmap/internal/engine"
	"flexmap/internal/mr"
	"flexmap/internal/randutil"
	"flexmap/internal/sim"
	"flexmap/internal/yarn"
)

// sortedKth is the reference selectKth replaces: sort, then index.
func sortedKth(xs []float64, k int) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[k]
}

// checkSelect runs selectKth on a copy of xs and requires it to return
// the sorted k-th value and to leave a permutation of the input behind.
func checkSelect(t *testing.T, xs []float64, k int) {
	t.Helper()
	work := slices.Clone(xs)
	got := selectKth(work, k)
	if want := sortedKth(xs, k); got != want {
		t.Fatalf("selectKth(%v, %d) = %v, want %v", xs, k, got, want)
	}
	a, b := slices.Clone(xs), slices.Clone(work)
	sort.Float64s(a)
	sort.Float64s(b)
	if !slices.Equal(a, b) {
		t.Fatalf("selectKth(%v, %d) left %v, not a permutation", xs, k, work)
	}
}

func TestSelectKthTable(t *testing.T) {
	inf := math.Inf(1)
	cases := [][]float64{
		{7},
		{2, 1},
		{1, 2},
		{3, 3, 3, 3, 3},
		{0, 0, 1, 0, 0, 1, 1, 0},
		{5, 1, 5, 1, 5, 1, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1},
		{-1.5, 2, -inf, inf, 0, 0.25, -1.5},
		{0.1, 0.1, 0.2, 0.1, 0.3, 0.3, 0.1, 0.2, 0.1, 0.1},
	}
	for _, xs := range cases {
		for k := range xs {
			checkSelect(t, xs, k)
		}
	}
}

// TestSelectKthMatchesSort is the property: on random inputs — dense
// duplicates and continuous values alike — selectKth agrees with sorting
// at every rank, including k=0 and k=len−1.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(64)
		if iter%10 == 0 {
			n = 1 + rng.Intn(2000)
		}
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(8)
		for i := range xs {
			if iter%2 == 0 {
				xs[i] = float64(rng.Intn(distinct))
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		for _, k := range []int{0, n - 1, rng.Intn(n), n / 4} {
			checkSelect(t, xs, k)
		}
	}
}

// sortVictim is selectVictim as it was before selection replaced the
// sort: the reference the O(R) ranking must reproduce exactly.
func sortVictim(l *LATE, now sim.Time, candidates []*engine.MapAttempt) (*engine.MapAttempt, sim.Duration) {
	var mature []scoredAttempt
	var rates []float64
	for _, a := range candidates {
		if a.Killed() {
			continue
		}
		age := sim.Duration(now - a.Start)
		if age < l.MinAge {
			continue
		}
		r := a.Progress(now) / float64(age)
		mature = append(mature, scoredAttempt{a, r})
		rates = append(rates, r)
	}
	if len(mature) == 0 {
		return nil, -1
	}
	sort.Float64s(rates)
	idx := int(l.SlowTaskPercentile * float64(len(rates)))
	if idx >= len(rates) {
		idx = len(rates) - 1
	}
	threshold := rates[idx]
	var victim *engine.MapAttempt
	var worst sim.Duration = -1
	for _, s := range mature {
		if s.rate > threshold {
			continue
		}
		if rem := s.a.EstRemaining(now); rem > worst || (rem == worst && victim != nil && s.a.Task < victim.Task) {
			worst, victim = rem, s.a
		}
	}
	return victim, worst
}

// attemptFleet is a driver with running map attempts and nothing else:
// no RM loop, no AM. Attempts hold no container, so any number fit on a
// node, and they may share BUs (LaunchMap does not claim them).
type attemptFleet struct {
	eng   *sim.Engine
	d     *engine.Driver
	c     *cluster.Cluster
	bus   []dfs.BUID
	tasks int
}

func newAttemptFleet(tb testing.TB, speeds []float64) *attemptFleet {
	tb.Helper()
	specs := make([]cluster.NodeSpec, len(speeds))
	for i, s := range speeds {
		specs[i] = cluster.NodeSpec{BaseSpeed: s, Slots: 2}
	}
	eng := sim.New()
	c := cluster.NewCluster("fleet", specs)
	store := dfs.NewStore(c, 3, randutil.New(2))
	if _, err := store.AddFile("input", 64*dfs.BUSize); err != nil {
		tb.Fatal(err)
	}
	spec := mr.JobSpec{Name: "wc", InputFile: "input", MapCost: 1}
	d, err := engine.NewDriver(eng, c, store, yarn.NewRM(eng, c), engine.DefaultCostModel(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	f, _ := store.File("input")
	return &attemptFleet{eng: eng, d: d, c: c, bus: f.BUs}
}

// launch starts an attempt of n BUs on the node, named by the given
// number so tests control the Task tie-break order.
func (f *attemptFleet) launch(node cluster.NodeID, n, name int) *engine.MapAttempt {
	off := f.tasks % (len(f.bus) - n + 1)
	f.tasks++
	return f.d.LaunchMap(engine.MapLaunch{
		Task: fmt.Sprintf("map-%05d", name), Node: f.c.Node(node),
		BUs: f.bus[off : off+n], LocalBUs: n,
		OnDone: func(*engine.MapAttempt) {},
	})
}

// TestSelectVictimMatchesSort drives random candidate sets through
// selectVictim and the sort-based reference at many instants. Speeds,
// sizes and start times come from small discrete sets, so attempts that
// share all three tie on progress rate (at the threshold in about a third
// of the probes) and on EstRemaining (at the winning value in about one
// in ten). Candidates are shuffled per probe since the set is unordered.
func TestSelectVictimMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		speeds := make([]float64, 4+rng.Intn(20))
		for i := range speeds {
			speeds[i] = []float64{0.25, 0.5, 1, 2}[rng.Intn(4)]
		}
		f := newAttemptFleet(t, speeds)
		count := 20 + rng.Intn(200)
		names := rng.Perm(count)
		var cands []*engine.MapAttempt
		for i := 0; i < count; i++ {
			node := cluster.NodeID(rng.Intn(len(speeds)))
			n := []int{4, 8, 16, 32}[rng.Intn(4)]
			at := sim.Duration(rng.Intn(12))
			f.eng.After(at, "launch", func() { cands = append(cands, f.launch(node, n, names[i])) })
		}
		l := NewLATE()
		l.SlowTaskPercentile = []float64{0.25, 0.01, 0.5, 0.9, 1}[trial%5]
		probes := 0
		for now := sim.Time(0.5); now < 30; now += sim.Time(rng.Intn(4)) + 0.5 {
			f.eng.RunUntil(now)
			// Speed shifts decouple a task's past rate from its remaining
			// time, so the threshold decides which straggler wins.
			for _, n := range f.c.Nodes {
				if rng.Intn(2) == 0 {
					n.SetInterference([]float64{0.05, 0.2, 0.5, 1}[rng.Intn(4)])
				}
			}
			if rng.Intn(8) == 0 && len(cands) > 0 {
				cands[rng.Intn(len(cands))].Kill()
			}
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			wantV, wantW := sortVictim(l, now, cands)
			gotV, gotW := l.selectVictim(now, cands)
			if gotV != wantV || gotW != wantW {
				t.Fatalf("trial %d t=%v: selectVictim = (%v, %v), sort-based = (%v, %v)",
					trial, now, taskOf(gotV), gotW, taskOf(wantV), wantW)
			}
			if wantV != nil {
				probes++
			}
		}
		if probes == 0 {
			t.Fatalf("trial %d: no probe found a victim; the harness is not exercising the ranking", trial)
		}
	}
}

func taskOf(a *engine.MapAttempt) string {
	if a == nil {
		return "<nil>"
	}
	return a.Task
}
