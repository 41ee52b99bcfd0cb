package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure backed by fewer than ten slower samples is one outlier.
const minBeyond = 10

// quantile is one reported percentile: its value, the percentile it
// actually is, and how many samples it was taken from.
type quantile struct {
	Value float64
	Pct   float64 // in (0, 100]
	N     int
}

// tailQuantile returns the highest percentile at or below want (a
// fraction, e.g. 0.99; 1 asks for the highest of all) that has at least
// minBeyond samples above it, by the nearest-rank rule. ok is false when there are too few samples for
// any percentile to qualify. samples is sorted in place.
func tailQuantile(samples []float64, want float64) (q quantile, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return quantile{N: n}, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(want*float64(n))) - 1 // nearest rank, 0-based
	if rank < 0 {
		rank = 0
	}
	if limit := n - 1 - minBeyond; rank > limit {
		rank = limit
	}
	return quantile{Value: samples[rank], Pct: 100 * float64(rank+1) / float64(n), N: n}, true
}

// median returns the middle value (mean of the middle two for even n).
// samples is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// spanOf renders the smallest and largest of samples.
func spanOf(samples []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return fmt.Sprintf("%.4g..%.4g", lo, hi)
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name:
// letters, digits, '_', '.', '-', starting with a letter or digit, at
// most 64 characters.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// tally counts operations attempted and failed. An operation fails when
// it errors, is refused (any non-2xx answer), or its output check fails.
type tally struct {
	attempted, failed int
	firstErr          error
}

// op records one attempted operation and its outcome.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// fail records a failure of an operation already counted (or of the
// run's output check, which counts as one operation of its own).
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// check counts an output check as one operation, failed when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op(nil)
		return
	}
	t.op(fmt.Errorf("check failed: "+format, args...))
}

// ratio is failed over attempted.
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
