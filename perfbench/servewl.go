package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"congestmst"
	"congestmst/internal/service"
)

// serveScale sizes the serve workload.
type serveScale struct {
	spec      congestmst.GraphSpec // miss and upload graphs; Seed is set per graph
	rate      float64              // operations per second, open loop
	poll      time.Duration        // job status poll period
	hitLag    time.Duration        // a hit repeats a miss due at least this much earlier
	probeSets int                  // traced pass: engine-matrix sets on one miss graph
	memRounds int                  // untraced pass: memory-probe jobs per engine
}

// serveMixed drives an in-process mstserved over loopback HTTP: open
// loop at 8 operations a second, 70 % misses (a fresh generator spec),
// 20 % hits (an earlier miss repeated) and 10 % writes (an NDJSON
// upload, then a job on its digest), all Elkin, engines taken in turn.
// Jobs are n=128: Elkin still plays about 5 000 rounds, so a job costs
// 0.02 (fiber) to 0.19 (cluster) CPU-seconds and the mix keeps about a
// quarter of two cores busy, well below saturation.
var serveMixed = serveScale{
	spec: congestmst.GraphSpec{Type: "random", N: 128, M: 512},
	rate: 8, poll: 2 * time.Millisecond, hitLag: time.Second, probeSets: 4, memRounds: 6,
}

// svc is one in-process job server behind a loopback listener, and the
// client the load generator shares. The client holds at most NumCPU
// connections, one per load-generating goroutine.
type svc struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// startService starts a server and returns it once GET /healthz
// answers 200, with the time that took.
func startService(ctx context.Context) (*svc, time.Duration, error) {
	t0 := time.Now()
	srv := service.New(service.Config{Workers: runtime.NumCPU()})
	s := &svc{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	if _, err := s.do(ctx, http.MethodGet, "/healthz", "", nil, nil); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("health check: %w", err)
	}
	return s, time.Since(t0), nil
}

// close stops the listener (waiting for requests in flight), then the
// server's worker pool, then the client's idle connections.
func (s *svc) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// do sends one request and decodes a JSON answer into out. A status of
// 400 or above is an error carrying the server's message.
func (s *svc) do(ctx context.Context, method, path, ctype string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: reading the answer: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding the answer: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// hitRatio reads the result cache's hit ratio from GET /stats.
func (s *svc) hitRatio(ctx context.Context) (float64, error) {
	var st struct {
		Hits   int64 `json:"cache_hits"`
		Misses int64 `json:"cache_misses"`
	}
	if _, err := s.do(ctx, http.MethodGet, "/stats", "", nil, &st); err != nil {
		return 0, err
	}
	return ratio(float64(st.Hits), float64(st.Hits+st.Misses)), nil
}

type opKind int

const (
	opMiss opKind = iota
	opHit
	opWrite
)

func (k opKind) String() string { return [...]string{"miss", "hit", "write"}[k] }

// op is one scheduled client operation.
type op struct {
	idx    int
	kind   opKind
	due    time.Duration // offset from the start of the loop
	engine congestmst.Engine
	alg    congestmst.Algorithm
	spec   congestmst.GraphSpec // the job's inline generator spec, unless body is set
	body   []byte               // NDJSON upload; the job then names its digest
	ref    *mstRef
}

// mstRef is the locally computed answer an operation must return.
type mstRef struct {
	edges  []int
	weight int64
}

// opResult is what one operation measured. err is set when the
// operation failed: an HTTP error, a failed or canceled job, or an
// answer other than the reference.
type opResult struct {
	err      error
	cached   bool
	late     time.Duration // dispatch delay past due
	upload   time.Duration
	submit   time.Duration
	latency  time.Duration // due until the poll that saw the job done
	elapsed  float64       // the server's engine run time, seconds
	rounds   int64
	messages int64
}

// opPattern is the operation mix, repeated: 70 % misses, 20 % hits,
// 10 % writes. Each engine in turn takes one operation of a slot, so
// every engine sees the whole pattern in the same order. The pattern
// is fixed rather than drawn from the seed so that which operations
// overlap, which sets the latency of the slower engines' jobs, is the
// same on every seed.
var opPattern = []opKind{opMiss, opMiss, opHit, opMiss, opWrite, opMiss, opMiss, opHit, opMiss, opMiss}

// planOps lays out the open loop's schedule: rate × seconds operations
// at fixed spacing, engines taken in turn, so each engine's operations
// spread over the whole run and share its drifts. The seed picks every
// graph and which earlier miss each hit repeats; a hit with no miss of
// its engine at least hitLag earlier becomes a miss.
func planOps(seed uint64, sc serveScale, seconds time.Duration) []*op {
	rng := rand.New(rand.NewPCG(seed, 0x73657276652d6d78))
	total := max(len(engines), int(math.Round(sc.rate*seconds.Seconds())))
	ops := make([]*op, total)
	misses := make([][]*op, len(engines)) // each engine's misses, in due order
	for i := range ops {
		ei := i % len(engines)
		o := &op{
			idx:    i,
			due:    time.Duration(float64(i) / sc.rate * float64(time.Second)),
			engine: engines[ei],
			alg:    congestmst.Elkin,
		}
		eligible := 0
		for eligible < len(misses[ei]) && misses[ei][eligible].due <= o.due-sc.hitLag {
			eligible++
		}
		switch k := opPattern[(i/len(engines))%len(opPattern)]; {
		case k == opHit && eligible > 0:
			src := misses[ei][rng.IntN(eligible)]
			o.kind, o.spec, o.ref = opHit, src.spec, src.ref
		case k == opWrite:
			o.kind = opWrite
		default:
			o.kind = opMiss
			misses[ei] = append(misses[ei], o)
		}
		if o.kind != opHit {
			o.spec = sc.spec
			o.spec.Seed = subSeed(seed, 1<<32+uint64(i))
			o.ref = &mstRef{}
		}
		ops[i] = o
	}
	return ops
}

// planMemProbes lays out the memory probe: sc.memRounds fresh misses
// per engine, engines rotated by one each round.
func planMemProbes(seed uint64, sc serveScale) []*op {
	var probes []*op
	for k := 0; k < sc.memRounds; k++ {
		for j := range engines {
			o := &op{
				idx: len(probes), kind: opMiss, engine: engines[(k+j)%len(engines)],
				alg: congestmst.Elkin, spec: sc.spec, ref: &mstRef{},
			}
			o.spec.Seed = subSeed(seed, 1<<36+uint64(o.idx))
			probes = append(probes, o)
		}
	}
	return probes
}

// prepare builds every graph the schedule names, outside the timed
// loop: the reference answer for each, and the NDJSON body of each
// upload.
func prepare(ops []*op, lt *layerTimes, tr *tracer, parent int) error {
	for _, o := range ops {
		if o.kind == opHit {
			continue
		}
		inst, err := prepareGraph(o.spec, lt, tr, parent)
		if err != nil {
			return err
		}
		o.ref.edges, o.ref.weight = inst.ref, inst.g.TotalWeight(inst.ref)
		if o.kind == opWrite {
			o.body = encodeNDJSON(inst.g)
		}
	}
	return nil
}

// encodeNDJSON renders g in the POST /graphs upload format.
func encodeNDJSON(g *congestmst.Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"n\":%d}\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"w\":%d}\n", e.U, e.V, e.W)
	}
	return b.Bytes()
}

// sleepUntil waits until t or until ctx ends.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// execute performs one operation due at t0+o.due: the upload if it has
// one, the job submission, then polls until the job ends, and checks
// the answer against the reference.
func (s *svc) execute(ctx context.Context, o *op, t0 time.Time, sc serveScale, seed uint64, tr *tracer, parent int) (res opResult) {
	due := t0.Add(o.due)
	start := time.Now()
	res.late = start.Sub(due)
	run := o.idx + 1
	opSpan := tr.reserve("op:"+o.kind.String(), parent, run, due)
	defer func() { tr.finish(opSpan, time.Now()) }()
	tr.add("dispatch-wait", opSpan, run, due, start)

	req := service.JobRequest{
		Algorithm: o.alg.String(), Engine: o.engine.String(), AsyncSeed: seed, IncludeEdges: true,
	}
	if o.body != nil {
		var info struct {
			Graph string `json:"graph"`
		}
		u0 := time.Now()
		if _, err := s.do(ctx, http.MethodPost, "/graphs", "application/x-ndjson", o.body, &info); err != nil {
			res.err = err
			return res
		}
		res.upload = time.Since(u0)
		tr.add("service.upload", opSpan, run, u0, u0.Add(res.upload))
		req.Graph = info.Graph
	} else {
		spec := o.spec
		req.Gen = &spec
	}
	body, err := json.Marshal(req)
	if err != nil {
		res.err = err
		return res
	}
	s0 := time.Now()
	var view service.JobView
	if _, err := s.do(ctx, http.MethodPost, "/jobs", "application/json", body, &view); err != nil {
		res.err = err
		return res
	}
	res.submit = time.Since(s0)
	tr.add("service.submit", opSpan, run, s0, s0.Add(res.submit))
	p0 := time.Now()
	for view.Status == service.StatusQueued || view.Status == service.StatusRunning {
		if err := sleepUntil(ctx, time.Now().Add(sc.poll)); err != nil {
			res.err = err
			return res
		}
		if _, err := s.do(ctx, http.MethodGet, "/jobs/"+view.ID, "", nil, &view); err != nil {
			res.err = err
			return res
		}
	}
	done := time.Now()
	tr.add("service.poll", opSpan, run, p0, done)
	res.latency = done.Sub(due)
	switch {
	case view.Status != service.StatusDone || view.Result == nil:
		res.err = fmt.Errorf("job %s (%s, %s) ended %s: %s", view.ID, o.kind, o.engine, view.Status, view.Error)
	case view.Result.Weight != o.ref.weight || !sameEdges(view.Result.MSTEdges, o.ref.edges):
		res.err = fmt.Errorf("job %s (%s, %s): MST weight %d differs from Kruskal's %d",
			view.ID, o.kind, o.engine, view.Result.Weight, o.ref.weight)
	default:
		res.cached = view.Cached
		res.elapsed = view.Result.ElapsedMillis / 1000
		res.rounds, res.messages = view.Result.Rounds, view.Result.Messages
	}
	return res
}

// openLoop dispatches ops on their schedule to NumCPU client
// goroutines. A late operation keeps its due time, so a stall shows in
// the latency of every operation queued behind it.
func (s *svc) openLoop(ctx context.Context, ops []*op, sc serveScale, seed uint64, tr *tracer, parent int) []opResult {
	results := make([]opResult, len(ops))
	for i := range results {
		results[i].err = fmt.Errorf("operation %d not dispatched", i)
	}
	feed := make(chan *op)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range feed {
				results[o.idx] = s.execute(ctx, o, t0, sc, seed, tr, parent)
			}
		}()
	}
dispatch:
	for _, o := range ops {
		if sleepUntil(ctx, t0.Add(o.due)) != nil {
			break
		}
		select {
		case feed <- o:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	return results
}

// memProbe runs the probe jobs one at a time, each submitted on a
// collected heap with the collector at memGOGC, and returns per engine
// the peak memory while each job ran: the server's resident state plus
// the job's working set. Peaks taken in the open loop would mostly
// measure where the collector's cycle stood when each job ran.
func (s *svc) memProbe(ctx context.Context, probes []*op, sc serveScale, seed uint64, mem *memSampler, gt *gate) map[congestmst.Engine][]float64 {
	peaks := make(map[congestmst.Engine][]float64)
	defer debug.SetGCPercent(debug.SetGCPercent(memGOGC))
	for _, p := range probes {
		collect()
		t0 := mem.Mark()
		res := s.execute(ctx, p, t0, sc, seed, nil, 0)
		peak := mem.PeakBetween(t0, mem.Mark())
		gt.record([]opResult{res})
		if res.err == nil && !res.cached {
			peaks[p.engine] = append(peaks[p.engine], peak)
		}
	}
	return peaks
}

// record counts operations against the gate.
func (gt *gate) record(results []opResult) {
	for i, x := range results {
		gt.attempt()
		if x.err != nil {
			gt.fail("operation %d: %v", i, x.err)
		}
	}
}

// runServe runs the serve workload.
func runServe(ctx context.Context, o runOpts, sc serveScale) (*report, error) {
	r := newReport()
	mem, err := startMemSampler(workloadLimit(o.seconds))
	if err != nil {
		return nil, err
	}
	defer mem.Stop()
	tr := o.tr
	wl := tr.reserve("workload", 0, 0, time.Now())
	defer func() { tr.finish(wl, time.Now()) }()

	// Set-up is everything the workload does before its first timed
	// operation: the server's start until it reports healthy, then the
	// schedule and the memory probe with every graph they name, its
	// reference answer and its upload body. The server alone starts in
	// under a millisecond, too little to time steadily, so a sample is
	// the whole of it. Each repetition starts on a collected heap; the
	// last server and schedule serve the run.
	setupSpan := tr.reserve("setup", wl, 0, time.Now())
	var setup []float64
	var lt layerTimes
	var s *svc
	var ops, probes []*op
	for begin := time.Now(); len(setup) < minSetups || time.Since(begin) < setupFor; {
		if s != nil {
			s.close()
		}
		ops, probes = nil, nil // so the collection frees the last repetition's graphs
		runtime.GC()
		t0 := time.Now()
		var d time.Duration
		if s, d, err = startService(ctx); err != nil {
			return nil, err
		}
		tr.add("service.start", setupSpan, 0, t0, t0.Add(d))
		lt.start = append(lt.start, d.Seconds())
		ops = planOps(o.seed, sc, o.seconds)
		probes = planMemProbes(o.seed, sc)
		if err := prepare(append(ops, probes...), &lt, tr, setupSpan); err != nil {
			s.close()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer s.close()
	tr.finish(setupSpan, time.Now())

	gt := newGate()
	// Warm-up: one job per engine, checked but not timed. The engine is
	// part of the cache key, so every one of them runs.
	warm := &op{kind: opMiss, alg: congestmst.Elkin, spec: sc.spec, ref: &mstRef{}}
	warm.spec.Seed = subSeed(o.seed, 1<<40)
	if err := prepare([]*op{warm}, &layerTimes{}, nil, 0); err != nil {
		return nil, err
	}
	for _, e := range engines {
		w := *warm
		w.engine = e
		gt.record([]opResult{s.execute(ctx, &w, time.Now(), sc, o.seed, nil, 0)})
	}

	results := s.openLoop(ctx, ops, sc, o.seed, tr, wl)
	gt.record(results)
	for _, x := range results {
		if x.err == nil {
			r.Rounds += x.rounds
			r.Messages += x.messages
		}
	}
	if !o.traced {
		peaks := s.memProbe(ctx, probes, sc, o.seed, mem, gt)
		gt.finish()
		r.absorb(gt)
		r.put("setup_s", median(setup), len(setup))
		// Per engine: the median latency of its operations in the open
		// loop, and the median peak memory of its probe jobs.
		for _, e := range engines {
			var lat []float64
			for i, x := range results {
				if x.err == nil && ops[i].engine == e {
					lat = append(lat, x.latency.Seconds())
				}
			}
			r.put("run_s."+e.String(), median(lat), len(lat))
			r.put("peak_mem_mb."+e.String(), median(peaks[e]), len(peaks[e]))
		}
		return r, mem.Err()
	}

	hits, err := s.hitRatio(ctx)
	if err != nil {
		return nil, err
	}
	serviceLayers(r, results, hits, mem.LateMax())
	lt.put(r)

	// Engine layers, probed by running the first miss's graph through
	// the library directly: the service attaches no observer of ours.
	var first *op
	for _, x := range ops {
		if x.kind == opMiss {
			first = x
			break
		}
	}
	inst, err := prepareGraph(first.spec, &layerTimes{}, nil, 0)
	if err != nil {
		return nil, err
	}
	mx := newMatrix(ctx, o.seed, []*instance{inst}, mem, gt, tr, wl)
	mx.warmUp()
	mx.loop(0, sc.probeSets, true)
	mx.perLayer(r)
	gt.finish()
	r.absorb(gt)
	return r, mem.Err()
}

// serviceProbe runs the service layers once over a graph workload's
// first graph, in a closed loop: an NDJSON upload of the graph with an
// Elkin job on its digest (a miss), the same graph as an inline
// generator spec (a hit: the digest matches), and a GHS job on the
// spec twice (a miss, then a hit). All jobs run on the fiber engine.
func serviceProbe(ctx context.Context, seed uint64, inst *instance, lt *layerTimes, tr *tracer, parent int) ([]opResult, float64, error) {
	s, d, err := startService(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer s.close()
	lt.start = append(lt.start, d.Seconds())
	ref := &mstRef{edges: inst.ref, weight: inst.g.TotalWeight(inst.ref)}
	body := encodeNDJSON(inst.g)
	ops := []*op{
		{kind: opWrite, alg: congestmst.Elkin, body: body},
		{kind: opHit, alg: congestmst.Elkin, spec: inst.spec},
		{kind: opMiss, alg: congestmst.GHS, spec: inst.spec},
		{kind: opHit, alg: congestmst.GHS, spec: inst.spec},
	}
	probeSpan := tr.reserve("service-probe", parent, 0, time.Now())
	defer func() { tr.finish(probeSpan, time.Now()) }()
	var results []opResult
	for i, x := range ops {
		x.idx, x.engine, x.ref = 1<<20+i, congestmst.Fiber, ref
		results = append(results, s.execute(ctx, x, time.Now(), serveMixed, seed, tr, probeSpan))
	}
	hits, err := s.hitRatio(ctx)
	if err != nil {
		return nil, 0, err
	}
	return results, hits, nil
}

// serviceLayers adds the service's per-layer metrics, measured from
// the client side of each HTTP call, and the harness's lateness.
func serviceLayers(r *report, results []opResult, hitRatio float64, samplerLate time.Duration) {
	var submit, upload, hit, miss, all, run, wait []float64
	late := samplerLate
	for _, x := range results {
		late = max(late, x.late)
		if x.err != nil {
			continue
		}
		all = append(all, x.latency.Seconds())
		submit = append(submit, x.submit.Seconds())
		if x.upload > 0 {
			upload = append(upload, x.upload.Seconds())
		}
		if x.cached {
			hit = append(hit, x.latency.Seconds())
			continue
		}
		miss = append(miss, x.latency.Seconds())
		run = append(run, x.elapsed)
		wait = append(wait, x.latency.Seconds()-x.elapsed)
	}
	r.put("service.submit_s_p50", median(submit), len(submit))
	r.put("service.upload_s_p50", median(upload), len(upload))
	r.put("service.hit_latency_s_p50", median(hit), len(hit))
	r.put("service.miss_latency_s_p50", median(miss), len(miss))
	r.put("service.run_s_p50", median(run), len(run))
	r.put("service.queue_wait_s_p50", median(wait), len(wait))
	v, level := tail(all)
	r.put("service.latency_tail_s", v, len(all))
	r.Notes = append(r.Notes, fmt.Sprintf("service.latency_tail_s is p%g of %d operations", level, len(all)))
	r.put("service.cache_hit_ratio", hitRatio, len(results))
	r.put("bench.late_max_s", late.Seconds(), len(results))
}
