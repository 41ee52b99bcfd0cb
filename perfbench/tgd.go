package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/fault"
	"tailguard/internal/tgd"
	"tailguard/internal/workload"
)

// Traffic of one tgd round. Every round does the same fixed work, so the
// journal a restart replays holds the same number of records on every
// commit. pacedRate was fixed once, at about half of tgd-mem's saturate
// rate on the 2-vCPU machine the benchmark was defined on; it must never
// be rescaled (README.md).
const (
	satQueries    = 1500                    // saturate phase: closed loop
	satWindow     = 16                      // outstanding queries in the closed loop
	pacedQueries  = 1000                    // paced phase: open-loop Poisson
	pacedRate     = 400                     // queries per second
	claimWaitMs   = 200                     // worker long-poll budget
	tgdRoundDur   = 3200 * time.Millisecond // nominal round duration
	tgdServers    = 100                     // cluster size the deadline estimator assumes
	phaseTimeout  = 60 * time.Second
	captureBodies = 4096 // bodies kept per endpoint for the JSON re-timing
)

// tgdTraffic is one round's generated inputs.
type tgdTraffic struct {
	satFanouts   []int
	pacedFanouts []int
	pacedAt      []time.Duration // offsets of the paced sends
	tasks        int             // total tasks of both phases
}

func newTraffic(seed int64) (*tgdTraffic, error) {
	fan, err := workload.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	t := &tgdTraffic{
		satFanouts:   fanoutMix(fan, satQueries, r),
		pacedFanouts: fanoutMix(fan, pacedQueries, r),
	}
	var at time.Duration
	for range t.pacedFanouts {
		at += time.Duration(r.ExpFloat64() / pacedRate * float64(time.Second))
		t.pacedAt = append(t.pacedAt, at)
	}
	for _, f := range append(append([]int(nil), t.satFanouts...), t.pacedFanouts...) {
		t.tasks += f
	}
	return t, nil
}

// fanoutMix returns n fanouts in fan's exact proportions (largest
// remainder), in a seeded random order. Fixing the mix keeps the task
// count, and so every per-round figure, the same for every seed; the
// seed only moves which query gets which fanout and when it arrives.
func fanoutMix(fan workload.FanoutDist, n int, r *rand.Rand) []int {
	support := fan.Support()
	counts := make([]int, len(support))
	rem := make([]float64, len(support))
	left := n
	for i, k := range support {
		exact := fan.Prob(k) * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]int, 0, n)
	for i, k := range support {
		for j := 0; j < counts[i]; j++ {
			out = append(out, k)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tgdDeadliner is the daemon's TF-EDFQ estimator seam: Masstree service
// times, one 1 ms SLO class.
func tgdDeadliner() (*core.Deadliner, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return nil, err
	}
	est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, tgdServers)
	if err != nil {
		return nil, err
	}
	return core.NewDeadliner(core.TFEDFQ, est, classes)
}

// storeKind opens the store of one workload: a fresh one, or (reopen)
// the same one again for a restart.
type storeKind struct {
	journal bool
	path    string
	mem     *tgd.MemStore
}

func (k *storeKind) open(fresh bool) (tgd.Store, error) {
	if !k.journal {
		if fresh || k.mem == nil {
			k.mem = tgd.NewMemStore()
		}
		return k.mem, nil
	}
	if fresh {
		if err := os.Remove(k.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return tgd.OpenFileStore(k.path, true)
}

// daemonUnderTest is one running tgd with its loopback HTTP server.
type daemonUnderTest struct {
	d    *tgd.Daemon
	srv  *http.Server
	addr string
	done chan struct{}
}

// startDaemon builds the daemon over store, serves it on a loopback
// port, and returns once the listener is up.
func startDaemon(store tgd.Store, dl *core.Deadliner, tr *tgdTrace) (*daemonUnderTest, error) {
	if tr != nil {
		store = tr.wrapStore(store)
	}
	d, err := tgd.New(tgd.Config{
		Store:          store,
		Deadliner:      dl,
		Resilience:     fault.Resilience{RetryBudget: 1},
		DefaultLeaseMs: 60000, // workers complete at once; no lease expires
	})
	if err != nil {
		store.Close() // New owns the store only once it succeeds
		return nil, err
	}
	d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	var h http.Handler = d.Mux()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	u := &daemonUnderTest{d: d, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		_ = u.srv.Serve(ln) // always http.ErrServerClosed, from stop
	}()
	return u, nil
}

// stop closes the server, waits for it, and closes the daemon (and its
// store).
func (u *daemonUnderTest) stop() error {
	err := u.srv.Close()
	<-u.done
	if cerr := u.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// newConnClient is a tgd client over one dedicated loopback connection.
func newConnClient(addr string, tr *tgdTrace) (*tgd.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = tr.wrapTransport(t)
	}
	return tgd.NewClient("http://"+addr, rt), t
}

// firstClaim serves one claim on an empty queue (204): the daemon is up.
func firstClaim(c *tgd.Client) error {
	lease, err := c.Claim(context.Background(), tgd.ClaimRequest{Worker: "probe"})
	if err == nil && lease != nil {
		err = fmt.Errorf("first claim on an empty daemon returned a lease")
	}
	return err
}

// loadStats are the client-observed figures of one round.
type loadStats struct {
	enqueueMs, claimMs, completeMs []float64
	queryMs                        []float64 // paced: scheduled send to last ack
	lateMs                         []float64 // paced: how late each send went out
	satWall                        time.Duration
	satTasks                       int
	claims, emptyClaims            int64
	mallocs                        uint64 // during the saturate phase
}

// doneMsg is a worker's ack of a query's last task.
type doneMsg struct {
	id int64
	at time.Time
}

// workerPool is the load generator's task-server side: nproc-1 (at least
// one) goroutines, each with its own connection, claiming and completing
// at once.
type workerPool struct {
	done    chan doneMsg
	release chan struct{} // closed-loop window slots freed by completions
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	claimMs []float64 // saturate phase only: paced claims park
	compMs  []float64
	claims  atomic.Int64
	empty   atomic.Int64
	comps   atomic.Int64
	// recording is set during the saturate phase, whose RPC latencies
	// are the reported ones.
	recording atomic.Bool
	errs      []error
	trans     []*http.Transport
}

// startWorkers starts nproc-1 workers (at least one): with the producer,
// never more I/O goroutines or connections than nproc. capacity is the
// round's query count, so completions never block a worker.
func startWorkers(mkClient func() (*tgd.Client, *http.Transport), capacity int) *workerPool {
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &workerPool{done: make(chan doneMsg, capacity), release: make(chan struct{}, capacity), cancel: cancel}
	p.recording.Store(true)
	for i := 0; i < n; i++ {
		c, t := mkClient()
		p.trans = append(p.trans, t)
		p.wg.Add(1)
		go p.loop(ctx, c, "w"+strconv.Itoa(i))
	}
	return p
}

func (p *workerPool) loop(ctx context.Context, c *tgd.Client, name string) {
	defer p.wg.Done()
	var claimMs, compMs []float64
	defer func() {
		p.mu.Lock()
		p.claimMs = append(p.claimMs, claimMs...)
		p.compMs = append(p.compMs, compMs...)
		p.mu.Unlock()
	}()
	for ctx.Err() == nil {
		t0 := time.Now()
		lease, err := c.Claim(ctx, tgd.ClaimRequest{Worker: name, WaitMs: claimWaitMs})
		if ctx.Err() != nil {
			return // stopped while parked: the queue was already drained
		}
		p.claims.Add(1)
		if err != nil {
			p.fail(err)
			continue
		}
		if lease == nil {
			p.empty.Add(1)
			continue
		}
		t1 := time.Now()
		resp, err := c.Complete(ctx, tgd.CompleteRequest{QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: name})
		t2 := time.Now()
		p.comps.Add(1)
		if p.recording.Load() {
			claimMs = append(claimMs, float64(t1.Sub(t0))/1e6)
			compMs = append(compMs, float64(t2.Sub(t1))/1e6)
		}
		if err == nil && (resp.Duplicate || resp.QueryFailed) {
			err = fmt.Errorf("query %d task %d: duplicate=%v failed=%v", lease.QueryID, lease.TaskIndex, resp.Duplicate, resp.QueryFailed)
		}
		if err != nil {
			p.fail(err)
			continue
		}
		if resp.QueryDone {
			p.done <- doneMsg{id: lease.QueryID, at: t2}
			p.release <- struct{}{}
		}
	}
}

func (p *workerPool) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// stop ends the workers (all queries are settled by now, so a parked
// claim has nothing to grant) and waits for them.
func (p *workerPool) stop() {
	p.cancel()
	p.wg.Wait()
	for _, t := range p.trans {
		t.CloseIdleConnections()
	}
}

// awaitDone collects n query completions or times out.
func (p *workerPool) awaitDone(n int) ([]doneMsg, error) {
	out := make([]doneMsg, 0, n)
	timeout := time.NewTimer(phaseTimeout)
	defer timeout.Stop()
	for len(out) < n {
		select {
		case m := <-p.done:
			out = append(out, m)
		case <-timeout.C:
			return out, fmt.Errorf("%d of %d queries settled within %v", len(out), n, phaseTimeout)
		}
	}
	return out, nil
}

// openLoop sends len(offsets) requests, the i-th due at start+offsets[i],
// from one goroutine. A send that runs late delays the ones behind it;
// their latency is still taken from when they were due, so a stall counts
// against every query queued behind it. It returns each request's due
// time and how late it went out.
func openLoop(start time.Time, offsets []time.Duration, send func(i int) error) (due []time.Time, late []time.Duration, errs []error) {
	due = make([]time.Time, len(offsets))
	late = make([]time.Duration, len(offsets))
	for i, off := range offsets {
		due[i] = start.Add(off)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due[i])
		if err := send(i); err != nil {
			errs = append(errs, err)
		}
	}
	return due, late, errs
}

// runRound drives one round's saturate and paced phases against a
// running daemon. mkClient makes one connection's client.
func runRound(tr *tgdTraffic, rep *report, mkClient func() (*tgd.Client, *http.Transport), afterSaturate func()) (*loadStats, error) {
	st := &loadStats{}
	pool := startWorkers(mkClient, satQueries+pacedQueries)
	defer pool.stop()
	producer, ptrans := mkClient()
	defer ptrans.CloseIdleConnections()
	ctx := context.Background()

	// Saturate: a closed loop holding at most satWindow queries open.
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	enqueued, inflight := 0, 0
	for _, f := range tr.satFanouts {
		for inflight >= satWindow {
			<-pool.release
			inflight--
		}
		t0 := time.Now()
		_, err := producer.Enqueue(ctx, tgd.EnqueueRequest{Fanout: f})
		st.enqueueMs = append(st.enqueueMs, float64(time.Since(t0))/1e6)
		rep.op(err)
		if err != nil {
			continue
		}
		enqueued++
		inflight++
		st.satTasks += f
	}
	if _, err := pool.awaitDone(enqueued); err != nil {
		return nil, err
	}
	st.satWall = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	pool.recording.Store(false)
	for len(pool.release) > 0 {
		<-pool.release
	}
	if afterSaturate != nil {
		afterSaturate()
	}

	// Paced: open-loop Poisson arrivals at pacedRate.
	ids := make([]int64, pacedQueries)
	due, late, errs := openLoop(time.Now(), tr.pacedAt, func(i int) error {
		resp, err := producer.Enqueue(ctx, tgd.EnqueueRequest{Fanout: tr.pacedFanouts[i]})
		if err != nil {
			ids[i] = -1
			return err
		}
		ids[i] = resp.QueryID
		return nil
	})
	rep.attempted += len(tr.pacedAt)
	for _, err := range errs {
		rep.fail(err)
	}
	dones, err := pool.awaitDone(pacedQueries - len(errs))
	if err != nil {
		return nil, err
	}
	dueByID := make(map[int64]time.Time, pacedQueries)
	for i, id := range ids {
		if id >= 0 {
			dueByID[id] = due[i]
		}
	}
	for _, m := range dones {
		st.queryMs = append(st.queryMs, float64(m.at.Sub(dueByID[m.id]))/1e6)
	}
	st.lateMs = durationsMs(late)
	pool.stop()
	st.claimMs, st.completeMs = pool.claimMs, pool.compMs
	st.claims, st.emptyClaims = pool.claims.Load(), pool.empty.Load()
	rep.attempted += int(st.claims + pool.comps.Load())
	for _, err := range pool.errs {
		rep.fail(err)
	}
	return st, nil
}

// snapshotCounters are the cumulative Snapshot fields a restart must
// reproduce from the journal.
func snapshotCounters(s *tgd.Snapshot) [7]int64 {
	return [7]int64{s.Queries, s.Tasks, s.CompletedTasks, s.QueriesDone, s.QueriesFailed, s.Duplicates, s.Missed}
}

// roundResult is one full round: load figures, accounting, restart.
type roundResult struct {
	load     *loadStats
	snap     tgd.Snapshot
	recovery time.Duration
	metrics  string // /metrics scrape (traced rounds)
}

// tgdRound runs one round on a fresh store: start, drive both phases,
// check exactly-once accounting, stop, restart from the store and check
// the recovered accounting.
func tgdRound(tr *tgdTraffic, rep *report, sk *storeKind, dl *core.Deadliner, trace *tgdTrace, inProcess bool) (*roundResult, error) {
	settle()
	store, err := sk.open(true)
	if err != nil {
		return nil, err
	}
	u, err := startDaemon(store, dl, trace)
	if err != nil {
		return nil, err
	}
	mk := func() (*tgd.Client, *http.Transport) { return newConnClient(u.addr, trace) }
	if inProcess {
		mk = func() (*tgd.Client, *http.Transport) {
			return tgd.NewClient("http://tgd.inprocess", tgd.InProcessTransport(u.d)), &http.Transport{}
		}
	}
	var afterSaturate func()
	if trace != nil {
		afterSaturate = func() { trace.enabled.Store(false) }
		trace.enabled.Store(true)
	}
	load, err := runRound(tr, rep, mk, afterSaturate)
	if err != nil {
		u.stop()
		return nil, err
	}
	rr := &roundResult{load: load, snap: u.d.Snapshot()}
	if trace != nil && !inProcess {
		rr.metrics, err = scrapeMetrics(u.addr)
		rep.op(err)
	}
	checkAccounting(rep, tr, &rr.snap)
	if err := u.stop(); err != nil {
		return nil, err
	}

	// Restart from the store: replay, listener up, first claim served.
	if trace != nil {
		trace.enabled.Store(true) // time the replay
	}
	t0 := time.Now()
	store, err = sk.open(false)
	if err != nil {
		return nil, err
	}
	u2, err := startDaemon(store, dl, trace)
	if err != nil {
		return nil, err
	}
	c, ct := newConnClient(u2.addr, nil)
	err = firstClaim(c)
	rr.recovery = time.Since(t0)
	ct.CloseIdleConnections()
	rep.op(err)
	after := u2.d.Snapshot()
	rep.check(snapshotCounters(&after) == snapshotCounters(&rr.snap),
		"restart accounting %v, before restart %v", snapshotCounters(&after), snapshotCounters(&rr.snap))
	rep.check(after.Ready == 0 && after.Leased == 0 && after.InFlight == 0,
		"restart left ready=%d leased=%d in-flight=%d", after.Ready, after.Leased, after.InFlight)
	return rr, u2.stop()
}

// checkAccounting asserts exactly-once settlement of one round.
func checkAccounting(rep *report, tr *tgdTraffic, s *tgd.Snapshot) {
	queries := int64(satQueries + pacedQueries)
	rep.check(s.Queries == queries && s.QueriesDone == queries,
		"queries accepted %d done %d, want %d", s.Queries, s.QueriesDone, queries)
	rep.check(s.Tasks == int64(tr.tasks) && s.CompletedTasks == int64(tr.tasks),
		"tasks enqueued %d completed %d, want %d", s.Tasks, s.CompletedTasks, tr.tasks)
	rep.check(s.Duplicates == 0 && s.QueriesFailed == 0 && s.Nacks == 0 && s.Expired == 0,
		"duplicates %d failed %d nacks %d expired %d, want 0", s.Duplicates, s.QueriesFailed, s.Nacks, s.Expired)
}

// measureTgdSetup times tgd.New, the listener and the first claim.
func measureTgdSetup(rep *report, sk *storeKind, dl *core.Deadliner) error {
	setup, reps, err := measureSetup(20, 300*time.Millisecond, func() error {
		store, err := sk.open(true)
		if err != nil {
			return err
		}
		u, err := startDaemon(store, dl, nil)
		if err != nil {
			return err
		}
		c, t := newConnClient(u.addr, nil)
		err = firstClaim(c)
		t.CloseIdleConnections()
		if serr := u.stop(); err == nil {
			err = serr
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, fmt.Sprintf("median of %d: tgd.New + listener + first claim", reps))
	return nil
}

func runTgdMem(cfg runConfig, rep *report) error {
	sk := &storeKind{}
	dl, err := tgdDeadliner()
	if err != nil {
		return err
	}
	if err := measureTgdSetup(rep, sk, dl); err != nil {
		return err
	}
	if cfg.trace {
		tr, err := newTraffic(cfg.seed)
		if err != nil {
			return err
		}
		return traceTgd(rep, tr, dl, filepath.Join(cfg.workDir, "tgd.journal"))
	}
	var walls, rates, recov []float64
	var roundMs [][]float64
	all := &loadStats{}
	for round := 0; round < cfg.rounds(tgdRoundDur, 2); round++ {
		tr, err := newTraffic(roundSeed(cfg.seed, round))
		if err != nil {
			return err
		}
		rr, err := tgdRound(tr, rep, sk, dl, nil, false)
		rep.op(err)
		if err != nil {
			return err
		}
		walls = append(walls, rr.load.satWall.Seconds())
		rates = append(rates, float64(rr.load.satTasks)/rr.load.satWall.Seconds())
		recov = append(recov, rr.recovery.Seconds())
		mergeLoad(all, rr.load)
		roundMs = append(roundMs, rr.load.queryMs)
	}
	rep.set("wall_s", median(walls), fmt.Sprintf("saturate phase of %d queries, median of %d rounds, range %s", satQueries, len(walls), spanOf(walls)))
	rep.set("tasks_per_s", median(rates), fmt.Sprintf("settled tasks per second in the saturate phase, median of %d", len(rates)))
	setLatencies(rep, roundMs, fmt.Sprintf("paced query latency at %d/s, from scheduled send", pacedRate))
	setRPCLatencies(rep, all, "tgd_", "_ms", true)
	rep.set("tgd_recovery_s", median(recov), fmt.Sprintf("median of %d restarts", len(recov)))
	return nil
}

func mergeLoad(dst, src *loadStats) {
	dst.enqueueMs = append(dst.enqueueMs, src.enqueueMs...)
	dst.claimMs = append(dst.claimMs, src.claimMs...)
	dst.completeMs = append(dst.completeMs, src.completeMs...)
	dst.queryMs = append(dst.queryMs, src.queryMs...)
	dst.lateMs = append(dst.lateMs, src.lateMs...)
	dst.claims += src.claims
	dst.emptyClaims += src.emptyClaims
}

// setRPCLatencies records the client-observed saturate-phase RPC
// percentiles as prefix+name+suffix (the names of the untraced printout,
// or the tgd.* per-layer names), and with paced the paced phase's query
// latency and generator lateness too.
func setRPCLatencies(rep *report, st *loadStats, prefix, suffix string, paced bool) {
	type figure struct {
		name    string
		samples []float64
		want    float64
	}
	figures := []figure{
		{"enqueue_p99", st.enqueueMs, 0.99},
		{"claim_p50", st.claimMs, 0.5},
		{"claim_p99", st.claimMs, 0.99},
		{"complete_p50", st.completeMs, 0.5},
		{"complete_p99", st.completeMs, 0.99},
	}
	if paced {
		figures = append(figures,
			figure{"query_p50", st.queryMs, 0.5},
			figure{"query_p99", st.queryMs, 0.99},
			figure{"late_p99", st.lateMs, 0.99})
	}
	for _, m := range figures {
		if q, ok := tailQuantile(m.samples, m.want); ok {
			rep.setQ(prefix+m.name+suffix, q)
		}
	}
}

// scrapeMetrics fetches the daemon's own /metrics exposition.
func scrapeMetrics(addr string) (string, error) {
	t := &http.Transport{}
	defer t.CloseIdleConnections()
	resp, err := (&http.Client{Transport: t}).Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// promValue reads one series' value from a Prometheus exposition.
func promValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}
