package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"tailguard/internal/experiment"
	"tailguard/internal/tgd"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		want   float64
		value  float64 // samples are 1..n, so the value is the rank+1
		pct    float64
		usable bool
	}{
		{n: 1000, want: 0.99, value: 990, pct: 99, usable: true},   // p99 has exactly ten beyond
		{n: 2000, want: 0.99, value: 1980, pct: 99, usable: true},  // plenty: the asked-for p99
		{n: 500, want: 0.99, value: 490, pct: 98, usable: true},    // capped to keep ten beyond
		{n: 8000, want: 1, value: 7990, pct: 99.875, usable: true}, // the tail: exactly ten beyond
		{n: 21, want: 0.5, value: 11, pct: 100 * 11.0 / 21, usable: true},
		{n: 15, want: 0.5, value: 5, pct: 100 * 5.0 / 15, usable: true}, // median would leave 7 beyond
		{n: 10, want: 0.5, usable: false},
	} {
		q, ok := tailQuantile(seq(tc.n), tc.want)
		if ok != tc.usable {
			t.Fatalf("n=%d: usable=%v, want %v", tc.n, ok, tc.usable)
		}
		if !ok {
			continue
		}
		beyond := tc.n - int(q.Value)
		if beyond < minBeyond {
			t.Errorf("n=%d want=%v: value %v leaves %d samples beyond", tc.n, tc.want, q.Value, beyond)
		}
		if q.Value != tc.value || q.Pct != tc.pct || q.N != tc.n {
			t.Errorf("n=%d want=%v: got %+v, want value %v pct %v", tc.n, tc.want, q, tc.value, tc.pct)
		}
	}
}

func TestOpenLoopLatencyCountsStallFromScheduledSend(t *testing.T) {
	const (
		gap   = 2 * time.Millisecond
		stall = 40 * time.Millisecond
		n     = 30
	)
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	acked := make([]time.Time, n)
	start := time.Now().Add(5 * time.Millisecond)
	due, late, errs := openLoop(start, offsets, func(i int) error {
		if i == 0 {
			time.Sleep(stall) // the system stalls on the first request
		}
		acked[i] = time.Now()
		return nil
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	for i := 1; i < n; i++ {
		behind := offsets[i] < stall
		latency := acked[i].Sub(due[i])
		if behind {
			// Queued behind the stall: its latency must carry the part of
			// the stall that overlapped its wait, although it was sent
			// (and answered) instantly once the generator got to it.
			if min := stall - offsets[i]; latency < min {
				t.Errorf("query %d due %v into the stall: latency %v < %v", i, offsets[i], latency, min)
			}
			if late[i] < stall-offsets[i] {
				t.Errorf("query %d: generator lateness %v not recorded", i, late[i])
			}
		} else if latency > stall/2 {
			t.Errorf("query %d due after the stall: latency %v, want small", i, latency)
		}
	}
}

func TestMetricNamesUseTheAllowedCharset(t *testing.T) {
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validName(s.name) || !validUnit(s.unit) {
			t.Errorf("metric %q unit %q outside the charset", s.name, s.unit)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q outside the charset", w.name)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "tgd.store.append_us", "p99_ms", "9x", "a-b", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("workloads: program %d, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, workloads[i].name, w.Name)
		}
	}
}

func TestRefusedOperationsCountAsFailed(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(tgd.ErrorBody{Error: "credit limit reached"})
	}))
	defer refusing.Close()
	c := tgd.NewClient(refusing.URL, nil)
	var tl tally
	tl.op(nil) // one operation that succeeded
	_, err := c.Enqueue(context.Background(), tgd.EnqueueRequest{Fanout: 1})
	var se *tgd.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("refused enqueue: err = %v, want a 429 StatusError", err)
	}
	tl.op(err)
	if tl.attempted != 2 || tl.failed != 1 || tl.ratio() != 0.5 {
		t.Fatalf("tally = %+v ratio %v, want 1 of 2 failed", tl, tl.ratio())
	}

	// A failed operation makes the run incorrect and fails the command,
	// after the result line is printed.
	rep := newReport()
	rep.tally = tl
	for _, s := range endToEnd {
		rep.set(s.name, 1, "")
	}
	var out, errOut bytes.Buffer
	if code := emit(&out, &errOut, "test", endToEnd, rep, false); code == 0 {
		t.Fatal("emit exited 0 with a failed operation")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result = %+v", res)
	}
}

func TestMissingEndToEndMetricFailsTheRun(t *testing.T) {
	rep := newReport()
	rep.op(nil)
	rep.set("setup_s", 1, "")
	var out, errOut bytes.Buffer
	if code := emit(&out, &errOut, "test", endToEnd, rep, false); code == 0 {
		t.Fatal("emit exited 0 with end-to-end metrics missing")
	}
}

func TestTrafficMixIsSeedIndependent(t *testing.T) {
	a, err := newTraffic(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTraffic(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.tasks != b.tasks || len(a.satFanouts) != satQueries || len(a.pacedFanouts) != pacedQueries {
		t.Fatalf("tasks %d vs %d; %d saturate and %d paced queries", a.tasks, b.tasks, len(a.satFanouts), len(a.pacedFanouts))
	}
	if equalInts(a.satFanouts, b.satFanouts) {
		t.Fatal("two seeds gave the same query order")
	}
	c, _ := newTraffic(1)
	if !equalInts(a.satFanouts, c.satFanouts) || !equalInts(a.pacedFanouts, c.pacedFanouts) {
		t.Fatal("one seed gave two different inputs")
	}
}

func TestSweepCheckComparesTheRunsMeanMargins(t *testing.T) {
	table := func(margins []float64) *experiment.Table {
		tbl := &experiment.Table{}
		for i, m := range margins {
			slo := sweepSLOs[i]
			tbl.Raw = append(tbl.Raw,
				map[string]float64{"slo_ms": slo, "max_load": 0.5 + m},
				map[string]float64{"slo_ms": slo, "max_load": 0.5})
		}
		return tbl
	}
	for _, c := range []struct {
		name   string
		sweeps [][]float64
		ok     bool
	}{
		{"TailGuard ahead everywhere", [][]float64{{0.05, 0.04, 0.01, 0.02}}, true},
		{"one sweep one step behind at one SLO", [][]float64{{0.05, -0.007, 0.01, 0.02}}, true},
		{"one sweep behind by more than LoadTol", [][]float64{{0.1, -0.05, 0.01, 0.02}}, false},
		{"tied over the SLOs", [][]float64{{0.007, -0.007, 0, 0}}, false},
		{"one step behind in one of four sweeps", [][]float64{
			{0.05, -0.007, 0.01, 0.02}, {0.05, 0.04, 0.01, 0.02}, {0.05, 0.04, 0.01, 0.02}, {0.05, 0.04, 0.01, 0.02}}, true},
		{"behind at one SLO in every sweep", [][]float64{
			{0.05, -0.03, 0.01, 0.02}, {0.05, -0.03, 0.01, 0.02}, {0.05, -0.03, 0.01, 0.02}, {0.05, -0.03, 0.01, 0.02}}, false},
	} {
		rep := newReport()
		var m sweepMargins
		for _, margins := range c.sweeps {
			checkSweep(rep, defaultSeed+1, table(margins), &m)
		}
		m.check(rep)
		if got := rep.failed == 0; got != c.ok || rep.attempted != len(sweepSLOs)+1 {
			t.Errorf("%s: ok = %v (%d of %d failed), want %v", c.name, got, rep.failed, rep.attempted, c.ok)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
