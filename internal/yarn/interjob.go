package yarn

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// InterJob multiplexes one ResourceManager across many concurrently
// running jobs. It registers itself as the RM's scheduler; on every slot
// offer it asks its Policy to rank the active jobs and consults each
// job's own ApplicationMaster in that order until one places work. Grant
// and release observers keep per-job running-container counts, which is
// the usage signal the fair and capacity policies rank by.
//
// Determinism: job ranking is a pure function of (policy, submission
// order, running counts), offers arrive in the RM's deterministic
// per-node order, and the observers do no RNG draws and schedule no
// events — so a multi-job run is as replayable as a solo one.
type InterJob struct {
	eng    *sim.Engine
	rm     *RM
	policy Policy

	jobs    []*JobHandle
	ranked  []*JobHandle       // undone jobs, in the order the policy last left them
	snaps   [][]*JobHandle     // per-nesting-depth copy of the consult order
	depth   int                // offers in flight (>1 when a consult re-offers)
	owners  map[int]ownerEntry // container ID → owning job while live
	current *JobHandle         // job being consulted for the in-flight offer
}

// ownerEntry remembers which job owns a container and where it runs, so
// node loss can write off containers that died without a Release.
type ownerEntry struct {
	job  *JobHandle
	node cluster.NodeID
}

// JobHandle is one job's registration with the inter-job scheduler.
type JobHandle struct {
	// Index is the submission order (0-based); FIFO rank and every
	// policy's tie-break.
	Index int
	// Name labels the job in panics and metrics.
	Name string
	// Queue indexes the capacity policy's queue config; FIFO and fair
	// ignore it.
	Queue int

	sched      Scheduler
	running    int
	done       bool
	submitted  sim.Time
	firstGrant sim.Time
	granted    bool
}

// Running returns the job's current granted-container count.
func (h *JobHandle) Running() int { return h.running }

// Done reports whether the job has been retired from scheduling.
func (h *JobHandle) Done() bool { return h.done }

// QueueWait returns the delay from submission to the job's first
// container grant, or -1 if it never received one.
func (h *JobHandle) QueueWait() sim.Duration {
	if !h.granted {
		return -1
	}
	return sim.Duration(h.firstGrant - h.submitted)
}

// NewInterJob wires the multiplexer into the RM as its scheduler and
// grant/release/liveness observer. Call before rm.Start.
func NewInterJob(eng *sim.Engine, rm *RM, p Policy) *InterJob {
	ij := &InterJob{eng: eng, rm: rm, policy: p, owners: make(map[int]ownerEntry)}
	rm.SetScheduler(ij)
	rm.OnGrant(ij.onGrant)
	rm.OnRelease(ij.onRelease)
	rm.OnNodeLost(ij.purgeNode)
	rm.OnNodeRestored(ij.purgeNode)
	return ij
}

// Submit registers a job's scheduler under the given queue and pokes the
// RM so idle capacity is offered to it immediately.
func (ij *InterJob) Submit(name string, queue int, s Scheduler) *JobHandle {
	h := &JobHandle{
		Index:     len(ij.jobs),
		Name:      name,
		Queue:     queue,
		sched:     s,
		submitted: ij.eng.Now(),
	}
	ij.jobs = append(ij.jobs, h)
	ij.ranked = append(ij.ranked, h)
	ij.rm.Poke()
	return h
}

// Retire removes a finished job from scheduling: its scheduler is no
// longer consulted for offers. Containers it still holds drain through
// the normal release path (or die with their nodes), so a failed job
// cannot wedge the queue. Retiring twice is a no-op. An offer already in
// flight keeps consulting from its own snapshot, retired job included.
func (ij *InterJob) Retire(h *JobHandle) {
	if h.done {
		return
	}
	h.done = true
	for i, r := range ij.ranked {
		if r == h {
			ij.ranked = append(ij.ranked[:i], ij.ranked[i+1:]...)
			break
		}
	}
}

// Jobs returns all submitted handles in submission order.
func (ij *InterJob) Jobs() []*JobHandle { return ij.jobs }

// OnSlotFree implements Scheduler: one offer, consulted across jobs in
// policy order until someone takes the slot.
//
// A consult can re-enter: SkewTune's repartition adds work and pokes the
// RM, whose nested offers run to completion before the outer consult
// returns. Each nesting depth therefore iterates its own reused copy of
// the ranking, and the outer offer ends as soon as a nested one took the
// node's last free slot.
func (ij *InterJob) OnSlotFree(n *cluster.Node) bool {
	if len(ij.ranked) == 0 {
		return false
	}
	k := ij.policy.Order(ij.ranked, ij.rm.TotalSlots())
	if ij.depth == len(ij.snaps) {
		ij.snaps = append(ij.snaps, nil)
	}
	order := append(ij.snaps[ij.depth][:0], ij.ranked[:k]...)
	ij.snaps[ij.depth] = order
	ij.depth++
	placed := ij.consult(order, n)
	ij.depth--
	return placed
}

// consult offers the node to each job in order until one places work or
// the node has no free slot left.
func (ij *InterJob) consult(order []*JobHandle, n *cluster.Node) bool {
	outer := ij.current
	for _, h := range order {
		ij.current = h
		placed := h.sched.OnSlotFree(n)
		ij.current = outer
		if placed {
			return true
		}
		if ij.rm.FreeSlots(n.ID) <= 0 {
			return false
		}
	}
	return false
}

// onGrant attributes a fresh container to the job whose scheduler is
// being consulted. A grant with no consultation in flight means some
// code path acquired capacity outside the offer protocol — a bug the
// multi-job invariants cannot survive, so it panics.
func (ij *InterJob) onGrant(c *Container) {
	if ij.current == nil {
		panic(fmt.Sprintf("yarn: container %d acquired outside a slot offer", c.ID))
	}
	ij.owners[c.ID] = ownerEntry{job: ij.current, node: c.Node.ID}
	ij.current.running++
	if !ij.current.granted {
		ij.current.granted = true
		ij.current.firstGrant = ij.eng.Now()
	}
}

// onRelease retires a container from its owner's count. Containers
// already written off by node loss are unknown here; that is fine.
func (ij *InterJob) onRelease(c *Container) {
	if e, ok := ij.owners[c.ID]; ok {
		e.job.running--
		delete(ij.owners, c.ID)
	}
}

// purgeNode writes off every live container on a node. Runs on both
// NodeLost and NodeRestored: crashed containers are abandoned without a
// Release, and a brief outage can restore a node that was never declared
// lost. The double call is idempotent.
func (ij *InterJob) purgeNode(id cluster.NodeID) {
	for cid, e := range ij.owners {
		if e.node == id {
			e.job.running--
			delete(ij.owners, cid)
		}
	}
}

// Policy ranks active jobs for one slot offer. Implementations must be
// pure functions of the active set and its running counts: same jobs,
// same counts, same order.
type Policy interface {
	// Name labels the policy in scenario configs and docs.
	Name() string
	// Order ranks the active jobs in place, highest priority first, and
	// returns how many of them to consult; jobs past that prefix are
	// excluded from this offer entirely (e.g. a capacity queue at its
	// cap). ranked holds every active job in the order this policy left
	// it at the previous offer, with jobs submitted since appended in
	// submission order and retired jobs removed. It is owned by the
	// caller and must not be retained.
	Order(ranked []*JobHandle, totalSlots int) int
}

// FIFOPolicy offers every slot to the earliest-submitted job first; a
// later job runs only on capacity every earlier job declined, exactly
// Hadoop's FIFO scheduler.
type FIFOPolicy struct{}

// Name implements Policy.
func (FIFOPolicy) Name() string { return "fifo" }

// Order implements Policy: submission order, which ranked keeps as long
// as nothing permutes it.
func (FIFOPolicy) Order(ranked []*JobHandle, _ int) int { return len(ranked) }

// FairPolicy offers each slot to the job holding the fewest containers,
// ties broken by submission order — so backlogged jobs converge to equal
// running-container counts (max-min fairness at container granularity).
type FairPolicy struct{}

// Name implements Policy.
func (FairPolicy) Name() string { return "fair" }

// Order implements Policy. The ranking persists across offers and each
// grant or release moves one count by ±1, so an insertion pass on the
// total order (running, Index) restores it in O(J) plus the few moves.
func (FairPolicy) Order(ranked []*JobHandle, _ int) int {
	for i := 1; i < len(ranked); i++ {
		h := ranked[i]
		j := i
		for ; j > 0 && fairBefore(h, ranked[j-1]); j-- {
			ranked[j] = ranked[j-1]
		}
		if j != i {
			ranked[j] = h
		}
	}
	return len(ranked)
}

// fairBefore is FairPolicy's total order: fewer running containers
// first, then earlier submission.
func fairBefore(a, b *JobHandle) bool {
	return a.running < b.running || (a.running == b.running && a.Index < b.Index)
}

// Queue is one capacity-scheduler queue: a guaranteed share of the
// cluster and a hard cap. With every queue backlogged, each receives its
// Share; when a queue idles, others elastically borrow its capacity up
// to their MaxShare.
type Queue struct {
	// Name labels the queue.
	Name string
	// Share is the queue's guaranteed capacity fraction. Shares should
	// sum to ≤ 1.
	Share float64
	// MaxShare caps the queue's usage as a fraction of total slots;
	// 0 means uncapped (1.0).
	MaxShare float64
}

// CapacityPolicy implements YARN's CapacityScheduler shape: jobs are
// grouped into queues, the most underserved queue (usage relative to its
// guaranteed share) is offered capacity first, and a queue at its
// MaxShare cap is skipped outright. Within a queue, jobs run FIFO.
type CapacityPolicy struct {
	Queues []Queue
}

// NewCapacityPolicy validates the queue config.
func NewCapacityPolicy(queues []Queue) (*CapacityPolicy, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("yarn: capacity policy needs at least one queue")
	}
	total := 0.0
	for i, q := range queues {
		if q.Share <= 0 {
			return nil, fmt.Errorf("yarn: queue %d (%s) needs a positive Share", i, q.Name)
		}
		if q.MaxShare != 0 && q.MaxShare < q.Share {
			return nil, fmt.Errorf("yarn: queue %d (%s) has MaxShare %v below Share %v", i, q.Name, q.MaxShare, q.Share)
		}
		total += q.Share
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("yarn: queue shares sum to %v > 1", total)
	}
	return &CapacityPolicy{Queues: queues}, nil
}

// Name implements Policy.
func (*CapacityPolicy) Name() string { return "capacity" }

// Cap returns a queue's hard container cap for the given cluster size.
func (p *CapacityPolicy) Cap(queue, totalSlots int) int {
	max := p.Queues[queue].MaxShare
	if max == 0 {
		max = 1
	}
	return int(max * float64(totalSlots))
}

// Order implements Policy: underserved queues first, FIFO within each,
// capped queues excluded. Jobs are ranked on the total order (queue
// rank, Index). A queue's rank is its position by usage/share, ties to
// the lower queue index; capped queues rank last and are cut off.
func (p *CapacityPolicy) Order(ranked []*JobHandle, totalSlots int) int {
	nq := len(p.Queues)
	buf := make([]int, 2*nq)
	usage, rank := buf[:nq], buf[nq:]
	for _, h := range ranked {
		if h.Queue < 0 || h.Queue >= nq {
			panic(fmt.Sprintf("yarn: job %q in unknown queue %d", h.Name, h.Queue))
		}
		usage[h.Queue] += h.running
	}
	for q := range rank {
		if usage[q] >= p.Cap(q, totalSlots) {
			rank[q] = nq
			continue
		}
		rq := float64(usage[q]) / p.Queues[q].Share
		for o := range usage {
			if ro := float64(usage[o]) / p.Queues[o].Share; ro < rq || (ro == rq && o < q) {
				rank[q]++
			}
		}
	}
	k := 0
	for i := 0; i < len(ranked); i++ {
		h := ranked[i]
		if rank[h.Queue] < nq {
			k++
		}
		j := i
		for ; j > 0 && capacityBefore(rank, h, ranked[j-1]); j-- {
			ranked[j] = ranked[j-1]
		}
		if j != i {
			ranked[j] = h
		}
	}
	return k
}

// capacityBefore is CapacityPolicy's total order for one offer.
func capacityBefore(rank []int, a, b *JobHandle) bool {
	ra, rb := rank[a.Queue], rank[b.Queue]
	return ra < rb || (ra == rb && a.Index < b.Index)
}
