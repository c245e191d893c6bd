// Package speculate implements the LATE (Longest Approximate Time to End)
// speculative-execution policy of Zaharia et al. (OSDI 2008), which YARN's
// stock speculator derives from and which the paper's "stock Hadoop"
// baseline runs.
//
// LATE's rules, as realized here:
//
//   - Cap speculative copies at a fraction of cluster slots.
//   - Never launch speculative work on a slow node (bottom quartile of
//     node speeds) — a copy there would lose the race anyway.
//   - Only speculate tasks whose progress rate is in the bottom quartile.
//   - Among eligible stragglers, duplicate the one with the longest
//     estimated time to completion.
//   - One speculative copy per task, and only when no pending original
//     work exists (the last-wave rule) — both enforced by the caller.
package speculate

import (
	"flexmap/internal/cluster"
	"flexmap/internal/engine"
	"flexmap/internal/sim"
)

// LATE is the policy. Zero-value fields are replaced by the canonical
// defaults at first use.
type LATE struct {
	// SpecCapFraction bounds in-flight speculative copies to this
	// fraction of total cluster slots (default 0.1).
	SpecCapFraction float64
	// SlowTaskPercentile: tasks with progress rates below this percentile
	// are speculation candidates (default 0.25).
	SlowTaskPercentile float64
	// SlowNodePercentile: nodes with speed below this percentile never
	// receive speculative copies (default 0.25).
	SlowNodePercentile float64
	// MinAge is the minimum attempt age before its progress rate is
	// considered meaningful (default 3 s, covering startup overhead).
	MinAge sim.Duration

	// Slow-node percentile and uniformity of the member speeds, memoized
	// on the cluster's speed epoch: node speeds only move on interference,
	// fault or membership transitions, while nodeIsSlow runs on every
	// speculation probe. speedsBuf is the selection scratch.
	speedsBuf   []float64
	speedsAt    uint64
	speedsValid bool
	threshold   float64
	uniform     bool

	// Per-Pick scratch, reused across calls (one policy serves one AM).
	mature []scoredAttempt
	rates  []float64

	// Victim memoized per (instant, candidate-set epoch): everything up to
	// the final node-local freshness check depends only on the candidate
	// set and the clock, and AMs probe every idle node at the same instant.
	pickAt     sim.Time
	pickEpoch  uint64
	pickValid  bool
	pickVictim *engine.MapAttempt
	pickWorst  sim.Duration
}

// scoredAttempt pairs an attempt with its observed progress rate.
type scoredAttempt struct {
	a    *engine.MapAttempt
	rate float64
}

// NewLATE returns a policy with the canonical defaults.
func NewLATE() *LATE {
	return &LATE{
		SpecCapFraction:    0.10,
		SlowTaskPercentile: 0.25,
		SlowNodePercentile: 0.25,
		MinAge:             3,
	}
}

func (l *LATE) defaults() {
	if l.SpecCapFraction == 0 {
		l.SpecCapFraction = 0.10
	}
	if l.SlowTaskPercentile == 0 {
		l.SlowTaskPercentile = 0.25
	}
	if l.SlowNodePercentile == 0 {
		l.SlowNodePercentile = 0.25
	}
	if l.MinAge == 0 {
		l.MinAge = 3
	}
}

// Pick implements engine.SpeculationPolicy.
func (l *LATE) Pick(d *engine.Driver, node *cluster.Node, candidates []*engine.MapAttempt, candEpoch uint64, activeSpec int) *engine.MapAttempt {
	l.defaults()
	if len(candidates) == 0 {
		return nil
	}
	cap := int(l.SpecCapFraction * float64(d.Cluster.TotalSlots()))
	if cap < 1 {
		cap = 1
	}
	if activeSpec >= cap {
		return nil
	}
	if l.nodeIsSlow(d.Cluster, node) {
		return nil
	}
	now := d.Eng.Now()

	// The straggler choice below is independent of the probing node, so
	// it is memoized per (instant, candidate-set epoch): every idle node
	// probed at the same instant sees the same candidate ranking.
	if !l.pickValid || l.pickAt != now || l.pickEpoch != candEpoch {
		l.pickVictim, l.pickWorst = l.selectVictim(now, candidates)
		l.pickAt, l.pickEpoch, l.pickValid = now, candEpoch, true
	}
	victim, worst := l.pickVictim, l.pickWorst
	if victim == nil {
		return nil
	}
	// A copy is only worth launching if the idle node could beat the
	// current attempt: compare estimated fresh runtime against the
	// straggler's estimated remaining time.
	fresh := sim.Duration(d.Cost.Overhead()) + d.Cost.MapEffective(victim.Bytes, d.Spec.MapCost, node.Speed())
	if fresh >= worst {
		return nil
	}
	return victim
}

// selectVictim ranks the candidate set at the given instant: progress
// rates for mature attempts, the slow-task percentile threshold, and the
// below-threshold attempt with the longest estimated remaining time.
func (l *LATE) selectVictim(now sim.Time, candidates []*engine.MapAttempt) (*engine.MapAttempt, sim.Duration) {
	// Progress rates for mature attempts (scratch reused across calls).
	l.mature = l.mature[:0]
	l.rates = l.rates[:0]
	for _, a := range candidates {
		// A candidate killed by a silent node crash lingers in the set
		// until heartbeat-timeout delivery; duplicating it would race a
		// corpse.
		if a.Killed() {
			continue
		}
		age := sim.Duration(now - a.Start)
		if age < l.MinAge {
			continue
		}
		r := a.Progress(now) / float64(age)
		l.mature = append(l.mature, scoredAttempt{a, r})
		l.rates = append(l.rates, r)
	}
	if len(l.mature) == 0 {
		return nil, -1
	}
	// Threshold rate at the slow-task percentile: the idx-th smallest
	// rate. Only that one value matters, so it is selected in O(R) over
	// the rate scratch; no ordering of the attempts is needed.
	threshold := percentile(l.rates, l.SlowTaskPercentile)

	// Among below-threshold tasks, pick the longest estimated time to
	// end, ties to the lexicographically smallest task — a unique winner,
	// so the scan needs no particular order.
	var victim *engine.MapAttempt
	var worst sim.Duration = -1
	for _, s := range l.mature {
		if s.rate > threshold {
			continue
		}
		if rem := s.a.EstRemaining(now); rem > worst || (rem == worst && victim != nil && s.a.Task < victim.Task) {
			worst, victim = rem, s.a
		}
	}
	return victim, worst
}

// nodeIsSlow reports whether the node's speed falls in the bottom
// percentile of cluster speeds. (LATE estimates node speed from observed
// progress; the simulation uses the node's current effective speed as
// that estimate.)
func (l *LATE) nodeIsSlow(c *cluster.Cluster, node *cluster.Node) bool {
	if epoch := c.SpeedEpoch(); !l.speedsValid || l.speedsAt != epoch {
		l.speedsBuf = l.speedsBuf[:0]
		for _, n := range c.Nodes {
			// Offline spares are not part of the fleet: including them
			// would shift the slow-node percentile of the members.
			if n.Offline() {
				continue
			}
			l.speedsBuf = append(l.speedsBuf, n.Speed())
		}
		speeds := l.speedsBuf
		lo, hi := speeds[0], speeds[0]
		for _, v := range speeds {
			lo, hi = min(lo, v), max(hi, v)
		}
		l.uniform = lo == hi
		l.threshold = percentile(speeds, l.SlowNodePercentile)
		l.speedsValid, l.speedsAt = true, epoch
	}
	// Strict comparison: nodes AT the percentile speed (e.g. the healthy
	// majority of a mostly-uniform cluster) are not slow.
	return !l.uniform && node.Speed() < l.threshold
}

// percentile returns the idx-th smallest value of xs, idx = ⌊p·len⌋
// clamped to the last index — the value sort.Float64s would leave at
// idx. xs must be non-empty and is reordered in place.
func percentile(xs []float64, p float64) float64 {
	idx := int(p * float64(len(xs)))
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return selectKth(xs, idx)
}

// selectKth returns the k-th smallest value of xs (0-based), the value
// sort.Float64s would place at index k, in expected O(len) time. It
// partially reorders xs. Quickselect with a median-of-three pivot and a
// three-way partition, so duplicate-heavy inputs (many attempts sharing
// one rate) shrink as fast as distinct ones. The values must not be NaN.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		p := max(a, b)
		// Partition into [lo,lt) < p, [lt,gt] == p, (gt,hi] > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				xs[i], xs[gt] = xs[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return xs[k]
}
