package yarn

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// fakeJob is a minimal AM for conformance tests: it launches up to
// demand tasks (negative = unbounded), each holding its container for
// hold seconds before releasing.
type fakeJob struct {
	eng     *sim.Engine
	rm      *RM
	demand  int
	hold    sim.Duration
	granted int
	onGrant func()
}

func (f *fakeJob) OnSlotFree(n *cluster.Node) bool {
	if f.demand == 0 {
		return false
	}
	if f.demand > 0 {
		f.demand--
	}
	c := f.rm.Acquire(n)
	f.granted++
	if f.onGrant != nil {
		f.onGrant()
	}
	f.eng.After(f.hold, "fake-task-done", func() { c.Release() })
	return true
}

// muxFixture builds an engine, cluster, RM, and InterJob over a policy.
func muxFixture(nodes int, p Policy) (*sim.Engine, *RM, *InterJob) {
	eng := sim.New()
	c := cluster.Homogeneous(nodes) // nodes × 2 slots
	rm := NewRM(eng, c)
	ij := NewInterJob(eng, rm, p)
	return eng, rm, ij
}

// TestFIFONeverReordersGrants: while an earlier job still has pending
// demand, no later job may receive a grant.
func TestFIFONeverReordersGrants(t *testing.T) {
	eng, rm, ij := muxFixture(4, FIFOPolicy{}) // 8 slots
	jobs := make([]*fakeJob, 3)
	for i := range jobs {
		i := i
		f := &fakeJob{eng: eng, rm: rm, demand: 20, hold: 10}
		f.onGrant = func() {
			for j := 0; j < i; j++ {
				if jobs[j].demand != 0 {
					t.Fatalf("t=%v: job %d granted while job %d still has %d pending tasks",
						eng.Now(), i, j, jobs[j].demand)
				}
			}
		}
		jobs[i] = f
		ij.Submit("job", 0, f)
	}
	rm.Start()
	eng.Run()
	for i, f := range jobs {
		if f.granted != 20 {
			t.Fatalf("job %d completed %d tasks, want 20", i, f.granted)
		}
	}
}

// TestFairConvergesToEqualShares: with every job backlogged, running
// containers spread within one of each other once the cluster is full.
func TestFairConvergesToEqualShares(t *testing.T) {
	eng, rm, ij := muxFixture(6, FairPolicy{}) // 12 slots across 3 jobs → 4 each
	const njobs = 3
	handles := make([]*JobHandle, njobs)
	for i := 0; i < njobs; i++ {
		f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 7}
		handles[i] = ij.Submit("job", 0, f)
	}
	rm.Start()
	// Check the spread at several instants after the fill phase; tasks
	// churn every 7 s so shares are continuously re-decided.
	for _, at := range []sim.Time{50, 100, 200} {
		eng.At(at, "check-fairness", func() {
			min, max := handles[0].Running(), handles[0].Running()
			for _, h := range handles[1:] {
				if r := h.Running(); r < min {
					min = r
				} else if r > max {
					max = r
				}
			}
			if max-min > 1 {
				t.Errorf("t=%v: running counts spread %d..%d, want within 1", eng.Now(), min, max)
			}
		})
	}
	eng.RunUntil(250)
}

// TestFairCountsSurviveNodeLoss: writing off a lost node's containers
// keeps fair-share accounting from leaking phantom usage.
func TestFairCountsSurviveNodeLoss(t *testing.T) {
	eng, rm, ij := muxFixture(2, FairPolicy{}) // 4 slots
	f := &fakeJob{eng: eng, rm: rm, demand: 4, hold: 1e9}
	h := ij.Submit("job", 0, f)
	rm.Start()
	eng.RunUntil(5)
	if h.Running() != 4 {
		t.Fatalf("running = %d, want 4", h.Running())
	}
	eng.At(6, "crash", func() {
		rm.cluster.Node(0).SetDown(true)
		rm.NodeLost(0)
	})
	eng.RunUntil(10)
	if h.Running() != 2 {
		t.Fatalf("after node loss running = %d, want 2 (node 0's containers written off)", h.Running())
	}
	// Restoring must not double-credit: the purge already ran at loss.
	eng.At(11, "restore", func() {
		rm.cluster.Node(0).SetDown(false)
		rm.NodeRestored(0)
	})
	eng.RunUntil(15)
	if h.Running() != 2 {
		t.Fatalf("after restore running = %d, want 2", h.Running())
	}
}

// TestCapacityNeverExceedsCaps: a queue's usage stays at or below
// MaxShare × total slots at every grant instant.
func TestCapacityNeverExceedsCaps(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "prod", Share: 0.25, MaxShare: 0.25}, // hard-capped at its share
		{Name: "batch", Share: 0.75, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(8, pol) // 16 slots; prod cap = 4
	var handles []*JobHandle
	for q := 0; q < 2; q++ {
		for j := 0; j < 2; j++ {
			f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 5}
			handles = append(handles, ij.Submit("job", q, f))
		}
	}
	check := func() {
		usage := [2]int{}
		for _, h := range handles {
			usage[h.Queue] += h.Running()
		}
		for q, u := range usage {
			if cap := pol.Cap(q, rm.TotalSlots()); u > cap {
				t.Fatalf("t=%v: queue %d usage %d exceeds cap %d", eng.Now(), q, u, cap)
			}
		}
	}
	for _, h := range handles {
		// Re-check the invariant on every single grant.
		fj := ij.jobs[h.Index].sched.(*fakeJob)
		fj.onGrant = check
	}
	rm.Start()
	eng.RunUntil(100)
	usage := 0
	for _, h := range handles[:2] {
		usage += h.Running()
	}
	if usage != 4 {
		t.Fatalf("prod queue steady-state usage = %d, want exactly its cap 4", usage)
	}
}

// TestCapacityElasticBorrow: when one queue is idle, the other grows past
// its guaranteed share up to its MaxShare (here: the whole cluster).
func TestCapacityElasticBorrow(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "a", Share: 0.25, MaxShare: 1.0},
		{Name: "b", Share: 0.75, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(6, pol) // 12 slots; a's guaranteed share is 3
	f := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 1e9}
	h := ij.Submit("greedy", 0, f)
	rm.Start()
	eng.RunUntil(30)
	if h.Running() != 12 {
		t.Fatalf("lone job holds %d slots, want all 12 via elastic borrow", h.Running())
	}
}

// TestCapacityReclaimAfterBorrow: a borrowing queue naturally shrinks
// back as its tasks finish and a newly busy queue is preferred for every
// freed slot (underserved-first ordering).
func TestCapacityReclaimAfterBorrow(t *testing.T) {
	pol, err := NewCapacityPolicy([]Queue{
		{Name: "a", Share: 0.5, MaxShare: 1.0},
		{Name: "b", Share: 0.5, MaxShare: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, rm, ij := muxFixture(4, pol) // 8 slots; each queue's share is 4
	borrower := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 4}
	hb := ij.Submit("borrower", 0, borrower)
	rm.Start()
	var hl *JobHandle
	eng.At(20, "late-arrival", func() {
		// The late queue wants exactly its share and holds it forever.
		late := &fakeJob{eng: eng, rm: rm, demand: 4, hold: 1e9}
		hl = ij.Submit("late", 1, late)
	})
	eng.At(19, "check-borrowed", func() {
		if hb.Running() != 8 {
			t.Errorf("t=19: borrower holds %d, want all 8", hb.Running())
		}
	})
	eng.At(60, "check-reclaimed", func() {
		// Underserved-first ordering hands every freed slot to the late
		// queue until it reaches its share; the borrower churns on at
		// most the remainder (less heartbeat re-offer latency).
		if hl.Running() != 4 {
			t.Errorf("t=60: late queue holds %d, want its full share 4", hl.Running())
		}
		if hb.Running() > 4 {
			t.Errorf("t=60: borrower still holds %d > 4 after reclaim", hb.Running())
		}
		if bf := borrower.granted; bf == 0 {
			t.Error("borrower never ran")
		}
	})
	eng.RunUntil(70)
}

// TestRetiredJobGetsNoOffers: a retired job's scheduler is never
// consulted again, and the slots it frees flow to the remaining jobs.
func TestRetiredJobGetsNoOffers(t *testing.T) {
	eng, rm, ij := muxFixture(2, FIFOPolicy{}) // 4 slots
	first := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 3}
	second := &fakeJob{eng: eng, rm: rm, demand: -1, hold: 3}
	h1 := ij.Submit("first", 0, first)
	ij.Submit("second", 0, second)
	rm.Start()
	eng.At(10, "retire-first", func() {
		ij.Retire(h1)
		first.demand = 0
	})
	eng.At(30, "check", func() {
		if got := second.granted; got == 0 {
			t.Error("second job never ran after first retired")
		}
		if h1.Running() != 0 {
			t.Errorf("retired job still holds %d containers", h1.Running())
		}
	})
	eng.RunUntil(35)
	if first.granted == 0 || second.granted == 0 {
		t.Fatalf("grants first=%d second=%d, both must run", first.granted, second.granted)
	}
}

// TestGrantOutsideOfferPanics: acquiring capacity outside the offer
// protocol must trip the attribution panic.
func TestGrantOutsideOfferPanics(t *testing.T) {
	eng, rm, ij := muxFixture(1, FIFOPolicy{})
	ij.Submit("job", 0, &fakeJob{eng: eng, rm: rm, demand: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("rogue Acquire did not panic")
		}
	}()
	rm.Acquire(rm.cluster.Node(0))
}

// TestQueueWait measures submission-to-first-grant delay on a saturated
// cluster.
func TestQueueWait(t *testing.T) {
	eng, rm, ij := muxFixture(1, FIFOPolicy{}) // 2 slots
	hog := &fakeJob{eng: eng, rm: rm, demand: 2, hold: 50}
	h0 := ij.Submit("hog", 0, hog)
	rm.Start()
	var h1 *JobHandle
	eng.At(10, "submit-waiter", func() {
		h1 = ij.Submit("waiter", 0, &fakeJob{eng: eng, rm: rm, demand: 1, hold: 1})
	})
	eng.Run()
	if h0.QueueWait() != 0 {
		t.Fatalf("hog queue wait = %v, want 0 (cluster idle at submit)", h0.QueueWait())
	}
	// Hog's tasks start at t=0 and t=1 (heartbeat pacing), finishing at
	// 50 and 51; the waiter submitted at 10 must wait for the first free
	// slot plus the re-offer heartbeat.
	if w := h1.QueueWait(); w < 40 {
		t.Fatalf("waiter queue wait = %v, want ≥ 40 (blocked behind hog)", w)
	}
}

// legacyOrder is the reference ranking the incremental one must match:
// the undone jobs in submission order, then each policy's original
// stable sort or queue walk.
func legacyOrder(p Policy, jobs []*JobHandle, totalSlots int) []*JobHandle {
	var active []*JobHandle
	for _, h := range jobs {
		if !h.done {
			active = append(active, h)
		}
	}
	switch p := p.(type) {
	case FIFOPolicy:
		return active
	case FairPolicy:
		sort.SliceStable(active, func(i, j int) bool { return active[i].running < active[j].running })
		return active
	case *CapacityPolicy:
		usage := make([]int, len(p.Queues))
		for _, h := range active {
			usage[h.Queue] += h.running
		}
		order := make([]int, len(p.Queues))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			qa, qb := order[a], order[b]
			return float64(usage[qa])/p.Queues[qa].Share < float64(usage[qb])/p.Queues[qb].Share
		})
		var out []*JobHandle
		for _, q := range order {
			if usage[q] >= p.Cap(q, totalSlots) {
				continue
			}
			for _, h := range active {
				if h.Queue == q {
					out = append(out, h)
				}
			}
		}
		return out
	}
	panic("legacyOrder: unknown policy")
}

// orderCheck sits between the RM and the InterJob and checks every
// offer, nested ones included, against legacyOrder computed when the
// offer starts.
type orderCheck struct {
	t        *testing.T
	ij       *InterJob
	frames   [][]*JobHandle // consults logged per offer in flight
	offers   int
	nested   int
	retired  int
	regrants int
}

func (o *orderCheck) OnSlotFree(n *cluster.Node) bool {
	want := legacyOrder(o.ij.policy, o.ij.jobs, o.ij.rm.TotalSlots())
	if len(o.frames) > 0 {
		o.nested++
	}
	o.offers++
	o.frames = append(o.frames, nil)
	placed := o.ij.OnSlotFree(n)
	got := o.frames[len(o.frames)-1]
	o.frames = o.frames[:len(o.frames)-1]
	if len(got) > len(want) {
		o.t.Fatalf("offer on node %d consulted %s, want a prefix of %s", n.ID, names(got), names(want))
	}
	for i := range got {
		if got[i] != want[i] {
			o.t.Fatalf("offer on node %d consulted %s, want a prefix of %s", n.ID, names(got), names(want))
		}
	}
	if !placed && len(got) < len(want) && o.ij.rm.free[n.ID] > 0 {
		o.t.Fatalf("offer on node %d stopped after %s with a slot still free", n.ID, names(got))
	}
	return placed
}

func names(hs []*JobHandle) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Name
	}
	return out
}

// scriptJob is an AM whose every consult is a seeded random action:
// decline, take the slot, retire a job, or re-offer through RM.Poke (as
// SkewTune's repartition does) and then maybe take the slot.
type scriptJob struct {
	o     *orderCheck
	rm    *RM
	rng   *rand.Rand
	index int // the job's submission index; Submit offers before it returns
	live  *[]*Container
}

func (s *scriptJob) OnSlotFree(n *cluster.Node) bool {
	o := s.o
	h := o.ij.jobs[s.index]
	if s.rm.free[n.ID] <= 0 {
		o.t.Fatalf("%s consulted on node %d with no free slot", h.Name, n.ID)
	}
	o.frames[len(o.frames)-1] = append(o.frames[len(o.frames)-1], h)
	switch r := s.rng.Intn(10); {
	case r < 5:
		return false
	case r < 7:
		return s.take(n)
	case r < 8:
		jobs := o.ij.jobs
		if h := jobs[s.rng.Intn(len(jobs))]; !h.done {
			o.ij.Retire(h)
			o.retired++
		}
		return false
	default:
		if len(o.frames) < 3 {
			s.rm.Poke()
		}
		if r == 9 && s.rm.free[n.ID] > 0 {
			o.regrants++
			return s.take(n)
		}
		return false
	}
}

// take acquires the node's slot and checks it is credited to this job,
// which fails if a nested offer left the multiplexer's current job unset.
func (s *scriptJob) take(n *cluster.Node) bool {
	c := s.rm.Acquire(n)
	if owner, h := s.o.ij.owners[c.ID].job, s.o.ij.jobs[s.index]; owner != h {
		s.o.t.Fatalf("container %d credited to %v, want %s", c.ID, owner, h.Name)
	}
	*s.live = append(*s.live, c)
	return true
}

// TestInterJobOrderMatchesLegacy drives random submit, grant, release,
// retire and node-loss sequences — with retires and nested offers inside
// consults — and checks that every offer consults jobs in exactly the
// order the original copy-and-stable-sort ranking gives, for every
// policy.
func TestInterJobOrderMatchesLegacy(t *testing.T) {
	policies := map[string]func() Policy{
		"fifo": func() Policy { return FIFOPolicy{} },
		"fair": func() Policy { return FairPolicy{} },
		"capacity": func() Policy {
			p, err := NewCapacityPolicy([]Queue{
				{Name: "a", Share: 0.2, MaxShare: 0.4},
				{Name: "b", Share: 0.3},
				{Name: "c", Share: 0.5, MaxShare: 0.75},
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			var total orderCheck
			for seed := int64(1); seed <= 40; seed++ {
				o := runOrderScript(t, mk(), seed)
				total.offers += o.offers
				total.nested += o.nested
				total.retired += o.retired
				total.regrants += o.regrants
			}
			if total.nested == 0 || total.retired == 0 || total.regrants == 0 {
				t.Fatalf("script never exercised nesting (%d), retire in consult (%d) or grant after nesting (%d)",
					total.nested, total.retired, total.regrants)
			}
			t.Logf("%d offers, %d nested", total.offers, total.nested)
		})
	}
}

func runOrderScript(t *testing.T, p Policy, seed int64) *orderCheck {
	rng := rand.New(rand.NewSource(seed))
	eng, rm, ij := muxFixture(6, p) // 12 slots
	o := &orderCheck{t: t, ij: ij}
	rm.SetScheduler(o)
	rm.Start()
	var live []*Container
	nq := 1
	if c, ok := p.(*CapacityPolicy); ok {
		nq = len(c.Queues)
	}
	for step := 0; step < 300; step++ {
		switch r := rng.Intn(10); {
		case r < 2 && len(ij.jobs) < 12:
			s := &scriptJob{o: o, rm: rm, rng: rng, index: len(ij.jobs), live: &live}
			ij.Submit(fmt.Sprintf("j%d", s.index), rng.Intn(nq), s)
		case r < 5 && len(live) > 0:
			i := rng.Intn(len(live))
			c := live[i]
			live = append(live[:i], live[i+1:]...)
			if !c.Released() {
				c.Release()
			}
		case r < 6 && len(ij.jobs) > 0:
			ij.Retire(ij.jobs[rng.Intn(len(ij.jobs))])
		case r < 7:
			n := rm.cluster.Node(cluster.NodeID(rng.Intn(rm.cluster.Size())))
			if n.Down() {
				n.SetDown(false)
				rm.NodeRestored(n.ID)
			} else {
				n.SetDown(true)
				rm.NodeLost(n.ID)
			}
		case r < 8:
			rm.Poke()
		default:
			eng.RunUntil(eng.Now() + 0.5)
		}
	}
	return o
}

// TestInterJobOfferAllocs: an offer that every job declines allocates
// nothing under fair and FIFO, with running counts moving between
// offers as grants and releases move them.
func TestInterJobOfferAllocs(t *testing.T) {
	for _, p := range []Policy{FairPolicy{}, FIFOPolicy{}} {
		ij, hs := offerFixture(p, 40)
		node := ij.rm.cluster.Node(0)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			nudge(hs, i)
			i++
			ij.OnSlotFree(node)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per declined offer, want 0", p.Name(), allocs)
		}
	}
}
