package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tailguard/internal/core"
	"tailguard/internal/tgd"
)

// tgdTrace records spans at the tgd layer boundaries the benchmark can
// reach from outside: the client's http.RoundTripper, the server's
// http.Handler and the daemon's Store seam. Spans are aggregated per
// endpoint in memory while enabled (the saturate phase and the restart's
// replay); request and response bodies are kept for re-timing the JSON
// codec.
type tgdTrace struct {
	enabled atomic.Bool

	mu       sync.Mutex
	client   map[string]*spanAgg // by URL path
	handler  map[string]*spanAgg
	store    map[string]*spanAgg // appends, by the endpoint that issues them
	appendUs []float64
	replay   time.Duration
	records  int
	bodies   map[string]*capturedBodies
}

type spanAgg struct {
	n  int64
	ns int64
}

type capturedBodies struct{ req, resp [][]byte }

func newTgdTrace() *tgdTrace {
	return &tgdTrace{
		client:  map[string]*spanAgg{},
		handler: map[string]*spanAgg{},
		store:   map[string]*spanAgg{},
		bodies:  map[string]*capturedBodies{},
	}
}

func (t *tgdTrace) add(m map[string]*spanAgg, key string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := m[key]
	if a == nil {
		a = &spanAgg{}
		m[key] = a
	}
	a.n++
	a.ns += int64(d)
}

// opEndpoint maps a journal record to the endpoint whose handler
// appends it.
var opEndpoint = map[tgd.OpKind]string{
	tgd.OpEnqueue:  "/v1/enqueue",
	tgd.OpComplete: "/v1/complete",
	tgd.OpFail:     "/v1/nack",
}

// timedStore wraps the daemon's Store seam.
type timedStore struct {
	tgd.Store
	t *tgdTrace
}

func (t *tgdTrace) wrapStore(s tgd.Store) tgd.Store { return timedStore{Store: s, t: t} }

// Append implements tgd.Store.
func (s timedStore) Append(r tgd.Record) error {
	if !s.t.enabled.Load() {
		return s.Store.Append(r)
	}
	start := time.Now()
	err := s.Store.Append(r)
	d := time.Since(start)
	s.t.add(s.t.store, opEndpoint[r.Op], d)
	s.t.mu.Lock()
	s.t.appendUs = append(s.t.appendUs, float64(d)/1e3)
	s.t.mu.Unlock()
	return err
}

// Replay implements tgd.Store.
func (s timedStore) Replay(apply func(tgd.Record) error) error {
	n := 0
	start := time.Now()
	err := s.Store.Replay(func(r tgd.Record) error {
		n++
		return apply(r)
	})
	if s.t.enabled.Load() {
		s.t.mu.Lock()
		s.t.replay, s.t.records = time.Since(start), n
		s.t.mu.Unlock()
	}
	return err
}

// wrapHandler times the daemon's HTTP handler per endpoint.
func (t *tgdTrace) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(t.handler, r.URL.Path, time.Since(start))
	})
}

// timedTransport wraps the client's RoundTripper: the span covers the
// request and the whole response body.
type timedTransport struct {
	base http.RoundTripper
	t    *tgdTrace
}

func (t *tgdTrace) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &timedTransport{base: base, t: t}
}

// RoundTrip implements http.RoundTripper.
func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled.Load() {
		return tt.base.RoundTrip(req)
	}
	path := req.URL.Path
	var reqBody []byte
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			reqBody, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	tt.t.add(tt.t.client, path, time.Since(start))
	tt.t.mu.Lock()
	cb := tt.t.bodies[path]
	if cb == nil {
		cb = &capturedBodies{}
		tt.t.bodies[path] = cb
	}
	if len(cb.req) < captureBodies && resp.StatusCode == http.StatusOK {
		cb.req = append(cb.req, reqBody)
		cb.resp = append(cb.resp, body)
	}
	tt.t.mu.Unlock()
	return resp, nil
}

// endpointTypes gives each endpoint's request and response wire types.
var endpointTypes = map[string]func() (req, resp any){
	"/v1/enqueue":  func() (any, any) { return &tgd.EnqueueRequest{}, &tgd.EnqueueResponse{} },
	"/v1/claim":    func() (any, any) { return &tgd.ClaimRequest{}, &tgd.Lease{} },
	"/v1/complete": func() (any, any) { return &tgd.CompleteRequest{}, &tgd.CompleteResponse{} },
}

// jsonCost re-times decoding (strict, as the daemon decodes requests) and
// encoding of one endpoint's captured bodies: total time and body count.
func jsonCost(cb *capturedBodies, types func() (any, any)) (dec, enc time.Duration, n int, err error) {
	var vals []any
	start := time.Now()
	for i := range cb.req {
		for j, raw := range [][]byte{cb.req[i], cb.resp[i]} {
			req, resp := types()
			v := req
			if j == 1 {
				v = resp
			}
			d := json.NewDecoder(bytes.NewReader(raw))
			d.DisallowUnknownFields()
			if err := d.Decode(v); err != nil {
				return 0, 0, 0, fmt.Errorf("re-decoding captured body: %w", err)
			}
			vals = append(vals, v)
		}
	}
	dec = time.Since(start)
	start = time.Now()
	for _, v := range vals {
		if _, err := json.Marshal(v); err != nil {
			return 0, 0, 0, err
		}
	}
	return dec, time.Since(start), len(vals), nil
}

// traceTgd is the traced tgd-mem run: an untraced round for the RPC
// percentiles, allocations and accounting; a traced round for the layer
// spans; the same round over tgd.InProcessTransport, which skips sockets
// and net/http's transport; and a traced round over an fsync-per-append
// journal with a restart from it, for the store layer.
func traceTgd(rep *report, tr *tgdTraffic, dl *core.Deadliner, journal string) error {
	mem := &storeKind{}
	plain, err := tgdRound(tr, rep, mem, dl, nil, false)
	rep.op(err)
	if err != nil {
		return err
	}
	setRPCLatencies(rep, plain.load, "tgd.", "_ms", false)
	if q, ok := tailQuantile(plain.load.lateMs, 0.99); ok {
		rep.setQ("loadgen.late_p99_ms", q)
	}
	rep.set("runtime.allocs_per_task", float64(plain.load.mallocs)/float64(plain.load.satTasks), "process-wide mallocs per settled task, saturate phase")
	rep.set("tgd.deadline_miss_ratio", float64(plain.snap.Missed)/float64(plain.snap.CompletedTasks),
		fmt.Sprintf("%d of %d tasks completed after their TF-EDFQ deadline", plain.snap.Missed, plain.snap.CompletedTasks))
	rep.set("tgd.claim.empty_ratio", float64(plain.load.emptyClaims)/float64(plain.load.claims),
		fmt.Sprintf("%d of %d claims found no task", plain.load.emptyClaims, plain.load.claims))

	trc := newTgdTrace()
	traced, err := tgdRound(tr, rep, mem, dl, trc, false)
	rep.op(err)
	if err != nil {
		return err
	}
	rep.set("trace.overhead_ratio", traced.load.satWall.Seconds()/plain.load.satWall.Seconds(), "traced / untraced saturate wall")
	if v, ok := promValue(traced.metrics, "tgd_claim_wait_ms_sum"); ok {
		if n, ok := promValue(traced.metrics, "tgd_claim_wait_ms_count"); ok && n > 0 {
			rep.set("tgd.claim_wait_ms", v/n, "mean long-poll park per granted claim, from /metrics")
		}
	}
	if v, ok := promValue(traced.metrics, `tgd_task_turnaround_ms{quantile="0.99"}`); ok {
		rep.set("tgd.turnaround_p99_ms", v, "from /metrics")
	}
	b, err := tgdBudget(rep, "MemStore", trc, traced.load)
	if err != nil {
		return err
	}
	rep.set("tgd.client_us", b.clientUs, "client span minus handler span, per op: sockets, net/http, client JSON")
	rep.set("tgd.handler_us", b.handlerUs, "handler span minus store span, per op: table, server JSON")
	rep.set("json.decode_us", b.decodeUs, "request + response decode per op, re-timed on captured bodies")
	rep.set("json.encode_us", b.encodeUs, "request + response encode per op, re-timed on captured bodies")

	inproc, err := tgdRound(tr, rep, mem, dl, nil, true)
	rep.op(err)
	if err != nil {
		return err
	}
	rep.set("tgd.inprocess.tasks_per_s", float64(inproc.load.satTasks)/inproc.load.satWall.Seconds(), "saturate phase over tgd.InProcessTransport")

	jrc := newTgdTrace()
	jk := &storeKind{journal: true, path: journal}
	jr, err := tgdRound(tr, rep, jk, dl, jrc, false)
	rep.op(err)
	if err != nil {
		return err
	}
	if _, err := tgdBudget(rep, "fsync journal", jrc, jr.load); err != nil {
		return err
	}
	fi, err := os.Stat(journal)
	rep.op(err)
	if err == nil {
		rep.set("tgd.store.bytes_per_task", float64(fi.Size())/float64(tr.tasks), "journal bytes per task")
	}
	rep.set("tgd.journal.tasks_per_s", float64(jr.load.satTasks)/jr.load.satWall.Seconds(), "saturate phase over OpenFileStore(path, true); fsync-bound, not gated")
	rep.set("tgd.recovery_s", jr.recovery.Seconds(), "restart from the journal: replay + listener + first claim")
	rep.set("tgd.replay_s", jrc.replay.Seconds(), "FileStore.Replay at the restart")
	rep.set("tgd.replay.records", float64(jrc.records), "")
	var appendNs float64
	for _, us := range jrc.appendUs {
		appendNs += us * 1e3
	}
	rep.set("tgd.store.append_us", appendNs/float64(len(jrc.appendUs))/1e3, fmt.Sprintf("mean of %d FileStore.Append calls (fsync)", len(jrc.appendUs)))
	if q, ok := tailQuantile(jrc.appendUs, 0.99); ok {
		rep.setQ("tgd.store.append_p99_us", q)
	}
	return nil
}

// tgdFigures are one traced round's per-op layer costs in µs.
type tgdFigures struct{ clientUs, handlerUs, decodeUs, encodeUs float64 }

// tgdBudget prints µs per op for each layer of a traced saturate phase,
// per endpoint, beside the worker's end-to-end µs per task.
func tgdBudget(rep *report, title string, trc *tgdTrace, load *loadStats) (tgdFigures, error) {
	var ops, clientNs, handlerNs, storeNs int64
	var decNs, encNs time.Duration
	var bodies int
	paths := make([]string, 0, len(trc.client))
	for p := range trc.client {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	rep.line("%s: %-14s %8s %10s %10s %10s %10s %10s", title, "endpoint", "ops", "client_us", "net+cli_us", "handler_us", "store_us", "json_us")
	for _, p := range paths {
		c, h, s := trc.client[p], trc.handler[p], trc.store[p]
		if h == nil {
			return tgdFigures{}, fmt.Errorf("endpoint %s: client spans but no handler spans", p)
		}
		if s == nil {
			s = &spanAgg{}
		}
		types, ok := endpointTypes[p]
		if !ok {
			return tgdFigures{}, fmt.Errorf("no wire types for endpoint %s", p)
		}
		dec, enc, n, err := jsonCost(trc.bodies[p], types)
		if err != nil {
			return tgdFigures{}, err
		}
		decNs += dec
		encNs += enc
		bodies += n
		per := func(ns int64) float64 { return float64(ns) / float64(c.n) / 1e3 }
		jsonUs := 0.0
		if n > 0 {
			jsonUs = float64(dec+enc) / float64(n/2) / 1e3 // one request + one response per op
		}
		rep.line("%s: %-14s %8d %10.1f %10.1f %10.1f %10.1f %10.1f", title, p, c.n, per(c.ns), per(c.ns-h.ns), per(h.ns-s.ns), per(s.ns), jsonUs)
		ops += c.n
		clientNs += c.ns
		handlerNs += h.ns
		storeNs += s.ns
	}
	if ops == 0 || bodies == 0 {
		return tgdFigures{}, fmt.Errorf("traced round recorded no spans")
	}
	perTask := float64(load.satWall) / float64(load.satTasks) / 1e3
	workerUs := float64(trc.client["/v1/claim"].ns+trc.client["/v1/complete"].ns) / float64(load.satTasks) / 1e3
	rep.line("%s: end to end %.1f µs per settled task (traced saturate wall); claim+complete client spans %.1f µs per task; residual %.1f µs (worker loop, producer contention)",
		title, perTask, workerUs, perTask-workerUs)
	opsPerBody := float64(bodies) / 2 // bodies come in request/response pairs
	return tgdFigures{
		clientUs:  float64(clientNs-handlerNs) / float64(ops) / 1e3,
		handlerUs: float64(handlerNs-storeNs) / float64(ops) / 1e3,
		decodeUs:  float64(decNs) / opsPerBody / 1e3,
		encodeUs:  float64(encNs) / opsPerBody / 1e3,
	}, nil
}
