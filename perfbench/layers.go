package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/metrics"
	"tailguard/internal/policy"
	"tailguard/internal/sim"
	"tailguard/internal/workload"
)

// Layer replays time one simulator layer through its public API at the
// operating point a measured run reported (pending events, queue depth,
// fanout mix, sample counts), so a layer's cost is measured where the
// run put it without instrumenting the program.

// replayOps is how many operations each replay times.
const replayOps = 1 << 18

// eventNs is ns per ScheduleCall+Step with depth events pending, each
// rescheduled one service time ahead.
func eventNs(depth int, svc dist.Distribution, seed int64) (float64, error) {
	if depth < 1 {
		depth = 1
	}
	r := rand.New(rand.NewSource(seed))
	offsets := make([]float64, 4096)
	for i := range offsets {
		offsets[i] = svc.Sample(r)
	}
	e := sim.NewEngine()
	var (
		i   int
		err error
		h   sim.Handler
	)
	h = func(any, float64) {
		i++
		if e2 := e.ScheduleCall(e.Now()+offsets[i&4095], h, nil, 0); e2 != nil && err == nil {
			err = e2
		}
	}
	for k := 0; k < depth; k++ {
		if err := e.ScheduleCall(offsets[k&4095]*r.Float64(), h, nil, 0); err != nil {
			return 0, err
		}
	}
	for k := 0; k < depth; k++ { // reach steady state
		e.Step()
	}
	start := time.Now()
	for k := 0; k < replayOps; k++ {
		e.Step()
	}
	return float64(time.Since(start)) / replayOps, err
}

// edfNs is ns per EDF push+pop with depth tasks queued.
func edfNs(depth int, budgetMs float64, seed int64) (float64, error) {
	q, err := policy.New(policy.EDF)
	if err != nil {
		return 0, err
	}
	r := rand.New(rand.NewSource(seed))
	tasks := make([]policy.Task, depth+1)
	now := 0.0
	for k := 0; k < depth; k++ {
		tasks[k].Deadline = budgetMs * r.Float64()
		q.Push(&tasks[k])
	}
	spare := &tasks[depth]
	start := time.Now()
	for k := 0; k < replayOps; k++ {
		now += 0.001
		spare.Deadline = now + budgetMs*r.Float64()
		q.Push(spare)
		spare = q.Pop()
	}
	return float64(time.Since(start)) / replayOps, nil
}

// budgetNs is ns per Deadliner.Deadline over the run's fanout mix.
func budgetNs(servers int, fan workload.FanoutDist, seed int64) (float64, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return 0, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return 0, err
	}
	est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, servers)
	if err != nil {
		return 0, err
	}
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		return 0, err
	}
	r := rand.New(rand.NewSource(seed))
	fanouts := make([]int, 4096)
	for i := range fanouts {
		fanouts[i] = fan.Sample(r)
	}
	var sink float64
	start := time.Now()
	for k := 0; k < replayOps; k++ {
		d, err := dl.Deadline(float64(k), 0, fanouts[k&4095])
		if err != nil {
			return 0, err
		}
		sink += d
	}
	elapsed := time.Since(start)
	if math.IsNaN(sink) {
		return 0, fmt.Errorf("deadliner returned NaN")
	}
	return float64(elapsed) / replayOps, nil
}

// observeNs is ns per LatencyRecorder.Observe, filling fresh recorders
// of perRecorder samples each (so growth is included, as in a run).
func observeNs(perRecorder int, svc dist.Distribution, seed int64) (float64, error) {
	if perRecorder < 1 {
		perRecorder = 1
	}
	r := rand.New(rand.NewSource(seed))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = svc.Sample(r)
	}
	total := 0
	var elapsed time.Duration
	for total < replayOps {
		rec := metrics.NewLatencyRecorder(0)
		start := time.Now()
		for k := 0; k < perRecorder; k++ {
			if err := rec.Observe(vals[k&4095]); err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start)
		total += perRecorder
	}
	return float64(elapsed) / float64(total), nil
}

// layerBudget replays the simulator layers at a run's operating point
// and prints each layer's ns per task beside the run's own ns per task,
// with the unexplained residual. st describes one (mean) run; runNs is
// the measured cluster.Run ns per task; next and sample are the seam
// counts of the wrapped runs, over seamTasks simulated tasks.
func layerBudget(rep *report, seed int64, st runStats, runNs float64, next, sample seamStats, seamTasks float64) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		rep.op(err)
		return
	}
	fan, err := workload.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		rep.op(err)
		return
	}
	depth := int(st.utilization*float64(st.servers) + 0.5) // one completion per busy server
	meanDepth := 0.0
	if st.durationMs > 0 {
		// Little's law per server: task arrival rate x mean wait.
		meanDepth = st.tasks / (st.durationMs * float64(st.servers)) * st.waitMeanMs
	}
	queueDepth := int(meanDepth + 0.5)
	ev, err := eventNs(depth+1, w.ServiceTime, seed)
	rep.op(err)
	edf, err := edfNs(queueDepth, 1.0, seed)
	rep.op(err)
	bud, err := budgetNs(st.servers, fan, seed)
	rep.op(err)
	obsNs, err := observeNs(int(st.observed), w.ServiceTime, seed)
	rep.op(err)

	perQuery := 1 / st.meanFanout
	nextNs, sampleNs := next.perCall(), sample.perCall()
	rows := []struct {
		metric string
		ns     float64
		perTsk float64
		basis  string
	}{
		{"sim.event_ns", ev, 1 + perQuery, fmt.Sprintf("%d pending events; one per task + one arrival per query", depth+1)},
		{"policy.edf_ns", edf, 1, fmt.Sprintf("push+pop at queue depth %d (Little's law: %.2f); one per task", queueDepth, meanDepth)},
		{"core.budget_ns", bud, perQuery, "Deadline over the 1/10/100 mix; one per query"},
		{"metrics.observe_ns", obsNs, 1 + 4*st.observed/st.tasks, fmt.Sprintf("recorders of %d samples; task wait + 4 per query", int(st.observed))},
		{"workload.next_ns", nextNs, float64(next.calls) / seamTasks, fmt.Sprintf("sampled 1 in %d calls", sampleEvery)},
		{"dist.sample_ns", sampleNs, float64(sample.calls) / seamTasks, fmt.Sprintf("sampled 1 in %d calls", sampleEvery)},
	}
	explained := 0.0
	rep.line("%-22s %10s %9s %12s  %s", "layer", "ns/op", "ops/task", "ns/task", "basis")
	for _, row := range rows {
		rep.set(row.metric, row.ns, row.basis)
		explained += row.ns * row.perTsk
		rep.line("%-22s %10.1f %9.3f %12.1f  %s", row.metric, row.ns, row.perTsk, row.ns*row.perTsk, row.basis)
	}
	residual := runNs - explained
	rep.set("workload.next_calls", float64(next.calls), "per run or sweep")
	rep.set("dist.sample_calls", float64(sample.calls), "per run or sweep")
	rep.set("cluster.run_ns_per_task", runNs, "cluster.Run wall per simulated task")
	rep.set("cluster.residual_ns_per_task", residual, "run ns/task minus the layers above")
	rep.line("%-22s %10s %9s %12.1f  end to end: cluster.Run wall per task", "cluster.run", "", "", runNs)
	rep.line("%-22s %10s %9s %12.1f  unexplained: runner bookkeeping, state store, merger, cache misses", "residual", "", "", residual)
}
