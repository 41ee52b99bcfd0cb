package main

import (
	"math/rand"
	"sync"
	"time"

	"tailguard/internal/cluster"
	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// Seam wrappers. The benchmark measures the simulator from outside: it
// wraps the public seams cluster.Config.Generator and ServiceTimes and
// times every sampleEvery-th call (timing every call would cost more
// than the calls themselves). The wrappers forward every value and RNG
// draw unchanged, so a wrapped run's Result equals the unwrapped one.

// sampleEvery is the timing stride of the seam wrappers (a power of two).
const sampleEvery = 16

// seamStats accumulates one seam's call count and sampled time.
type seamStats struct {
	calls   int64
	sampled int64
	ns      int64
}

func (s *seamStats) add(o seamStats) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
}

// perCall is the mean sampled time per call in ns, minus the timer's own
// cost.
func (s seamStats) perCall() float64 {
	if s.sampled == 0 {
		return 0
	}
	v := float64(s.ns)/float64(s.sampled) - timerCostNs()
	if v < 0 {
		v = 0
	}
	return v
}

// timedSource wraps a query source. It forwards Recycle, so the
// generator's placement-slice freelist keeps working and the traced run
// stays allocation-free. chunk > 0 additionally records the wall time of
// every chunk consecutive queries (sim-10k's progress latency).
type timedSource struct {
	src     workload.QuerySource
	rec     cluster.ServerRecycler // nil when src does not recycle
	trace   bool
	chunk   int
	last    time.Time
	chunks  []time.Duration
	stats   seamStats
	started bool
}

func newTimedSource(src workload.QuerySource, trace bool, chunk int) *timedSource {
	t := &timedSource{src: src, trace: trace, chunk: chunk}
	t.rec, _ = src.(cluster.ServerRecycler)
	return t
}

// Next implements workload.QuerySource.
func (t *timedSource) Next() (workload.Query, bool) {
	t.stats.calls++
	if t.chunk > 0 {
		if !t.started {
			t.started, t.last = true, time.Now()
		} else if t.stats.calls%int64(t.chunk) == 0 {
			now := time.Now()
			t.chunks = append(t.chunks, now.Sub(t.last))
			t.last = now
		}
	}
	if !t.trace || t.stats.calls&(sampleEvery-1) != 0 {
		return t.src.Next()
	}
	start := time.Now()
	q, ok := t.src.Next()
	t.stats.ns += int64(time.Since(start))
	t.stats.sampled++
	return q, ok
}

// Recycle implements cluster.ServerRecycler.
func (t *timedSource) Recycle(servers []int) {
	if t.rec != nil {
		t.rec.Recycle(servers)
	}
}

// timedDist wraps a service-time distribution, timing Sample.
type timedDist struct {
	dist.Distribution
	stats seamStats
}

// Sample implements dist.Distribution.
func (d *timedDist) Sample(r *rand.Rand) float64 {
	d.stats.calls++
	if d.stats.calls&(sampleEvery-1) != 0 {
		return d.Distribution.Sample(r)
	}
	start := time.Now()
	v := d.Distribution.Sample(r)
	d.stats.ns += int64(time.Since(start))
	d.stats.sampled++
	return v
}

// wrapSeams replaces cfg's generator and service-time distributions with
// timed wrappers and returns them.
func wrapSeams(cfg *cluster.Config, trace bool, chunk int) (*timedSource, []*timedDist) {
	src := newTimedSource(cfg.Generator, trace, chunk)
	cfg.Generator = src
	if !trace {
		return src, nil
	}
	dists := make([]*timedDist, len(cfg.ServiceTimes))
	wrapped := make([]dist.Distribution, len(cfg.ServiceTimes))
	for i, d := range cfg.ServiceTimes {
		dists[i] = &timedDist{Distribution: d}
		wrapped[i] = dists[i]
	}
	cfg.ServiceTimes = wrapped
	return src, dists
}

var (
	timerOnce sync.Once
	timerNs   float64
)

// timerCostNs is the cost of one start/stop timer pair, subtracted from
// sampled seam times.
func timerCostNs() float64 {
	timerOnce.Do(func() {
		const n = 1 << 16
		var inside int64 // what an empty timed region reads
		for i := 0; i < n; i++ {
			s := time.Now()
			inside += int64(time.Since(s))
		}
		timerNs = float64(inside) / n
	})
	return timerNs
}
