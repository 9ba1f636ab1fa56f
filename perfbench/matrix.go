package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"congestmst"
	"congestmst/internal/verify"
)

// engines are measured in this order, rotated by one every set so no
// engine always runs first (on a warm or a cold heap).
var engines = []congestmst.Engine{
	congestmst.Lockstep, congestmst.Parallel, congestmst.Fiber, congestmst.Async, congestmst.Cluster,
}

// algorithms run on every engine: the paper's algorithm and the GHS
// baseline it is measured against.
var algorithms = []congestmst.Algorithm{congestmst.Elkin, congestmst.GHS}

// engineModule is the package whose round loop runs the engine; its
// name prefixes the engine's per-layer metrics.
func engineModule(e congestmst.Engine) string {
	switch e {
	case congestmst.Lockstep:
		return "congest"
	case congestmst.Cluster:
		return "nettrans"
	default:
		return "parsim"
	}
}

// coreStages are the Elkin stages, in order, that PhaseEvents delimit.
var coreStages = []string{"bfs-build", "base-forest", "register", "boruvka"}

const mib = 1 << 20

// instance is one input graph with its Kruskal reference, computed
// once, outside any timed section.
type instance struct {
	spec congestmst.GraphSpec
	g    *congestmst.Graph
	ref  []int
}

// gate is the correctness check every timed run passes through. A
// failed check counts against the workload's failed operations.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	barrier   map[gateKey]*congestmst.Stats // first barrier-engine stats
	async     map[gateKey]*congestmst.Stats // first Async stats
}

type gateKey struct {
	graph int
	alg   congestmst.Algorithm
}

func newGate() *gate {
	return &gate{barrier: make(map[gateKey]*congestmst.Stats), async: make(map[gateKey]*congestmst.Stats)}
}

// fail records one failed operation with its reason; the first few
// reasons are kept for the report.
func (gt *gate) fail(format string, args ...any) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	gt.failed++
	if len(gt.errs) < 8 {
		gt.errs = append(gt.errs, fmt.Sprintf(format, args...))
	}
}

func (gt *gate) attempt() {
	gt.mu.Lock()
	gt.attempted++
	gt.mu.Unlock()
}

func sameStats(a, b *congestmst.Stats) bool {
	return a.Rounds == b.Rounds && a.Messages == b.Messages && a.ByKind == b.ByKind
}

func sameEdges(a, b []int) bool {
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

// check applies the gate to one run on graph gi: the MST must equal
// the reference; the barrier engines (every engine but Async) must
// agree exactly on Rounds, Messages and ByKind across engines and
// repetitions; Async must repeat itself exactly under the same seed.
// The Async-versus-barrier message bound is checked by finish, once
// both sides have run.
func (gt *gate) check(gi int, inst *instance, e congestmst.Engine, a congestmst.Algorithm, res *congestmst.Result, err error) {
	gt.attempt()
	if err != nil {
		gt.fail("%s/%s graph %d: %v", e, a, gi, err)
		return
	}
	if !sameEdges(res.MSTEdges, inst.ref) {
		gt.fail("%s/%s graph %d: MST differs from Kruskal", e, a, gi)
		return
	}
	key := gateKey{gi, a}
	gt.mu.Lock()
	seen := gt.barrier
	if e == congestmst.Async {
		seen = gt.async
	}
	first, ok := seen[key]
	if !ok {
		seen[key] = res.Stats
	}
	gt.mu.Unlock()
	if ok && !sameStats(first, res.Stats) {
		gt.fail("%s/%s graph %d: stats (%d rounds, %d messages) differ from an earlier run's (%d, %d)",
			e, a, gi, res.Rounds, res.Messages, first.Rounds, first.Messages)
	}
}

// finish checks that Async never sent more messages than the barrier
// engines on the same graph and algorithm.
func (gt *gate) finish() {
	for key, as := range gt.async {
		if ss, ok := gt.barrier[key]; ok && as.Messages > ss.Messages {
			gt.fail("async/%s graph %d: %d messages, more than the barrier engines' %d",
				key.alg, key.graph, as.Messages, ss.Messages)
		}
	}
}

// counts returns the summed rounds and messages of graph 0 over the
// algorithms, as the barrier engines measured them.
func (gt *gate) counts() (rounds, messages int64) {
	for _, a := range algorithms {
		if s, ok := gt.barrier[gateKey{0, a}]; ok {
			rounds += s.Rounds
			messages += s.Messages
		}
	}
	return rounds, messages
}

// matrix runs every engine × algorithm cell on a set of instances, set
// after set, and collects what the workload reports.
type matrix struct {
	ctx   context.Context
	seed  uint64
	insts []*instance
	mem   *memSampler
	gate  *gate
	tr    *tracer
	span  int // parent span of the sets

	walls  map[cell][]float64 // untraced wall seconds
	traced map[cell][]float64 // traced wall seconds
	peaks  map[cell][]float64 // memory-set peak memory, MiB
	verify map[congestmst.Algorithm][]float64
	layers map[string][]float64 // per-layer values, one per traced set
	runs   int
}

type cell struct {
	e congestmst.Engine
	a congestmst.Algorithm
}

func newMatrix(ctx context.Context, seed uint64, insts []*instance, mem *memSampler, gt *gate, tr *tracer, span int) *matrix {
	return &matrix{
		ctx: ctx, seed: seed, insts: insts, mem: mem, gate: gt, tr: tr, span: span,
		walls:  make(map[cell][]float64),
		traced: make(map[cell][]float64),
		peaks:  make(map[cell][]float64),
		verify: make(map[congestmst.Algorithm][]float64),
		layers: make(map[string][]float64),
	}
}

func (mx *matrix) options(e congestmst.Engine, a congestmst.Algorithm) congestmst.Options {
	return congestmst.Options{Algorithm: a, Engine: e, AsyncSeed: mx.seed}
}

// warmUp runs GHS once on every engine, untimed but checked, so the
// first timed run of an engine does not pay for cold code and first
// dials.
func (mx *matrix) warmUp() {
	for _, e := range engines {
		res, err := congestmst.RunContext(mx.ctx, mx.insts[0].g, mx.options(e, congestmst.GHS))
		mx.gate.check(0, mx.insts[0], e, congestmst.GHS, res, err)
	}
}

// setMode is what the runs of a set measure.
type setMode int

const (
	timedSet  setMode = iota // wall time: run_s
	tracedSet                // with the probe attached: the per-layer metrics
	memSet                   // memory, the collector at memGOGC: peak_mem_mb
)

func (m setMode) String() string { return [...]string{"set", "set-traced", "set-mem"}[m] }

// loop plays sets until the next one would end past budget, playing
// at least minSets. Set k runs on instance k mod len(insts). With
// traced set, sets alternate untraced and traced, each pair on one
// instance, so drift over the run affects both sides alike.
func (mx *matrix) loop(budget time.Duration, minSets int, traced bool) {
	start := time.Now()
	var last time.Duration
	for k := 0; ; k++ {
		if k >= minSets && (time.Since(start)+last > budget || mx.ctx.Err() != nil) {
			return
		}
		t := time.Now()
		switch {
		case !traced:
			mx.playSet(k, k%len(mx.insts), timedSet)
		case k%2 == 1:
			mx.playSet(k, (k/2)%len(mx.insts), tracedSet)
		default:
			mx.playSet(k, (k/2)%len(mx.insts), timedSet)
		}
		last = time.Since(t)
	}
}

// playSet runs every cell on instance gi, engines rotated by k: once,
// or in a memory set up to memReps times.
func (mx *matrix) playSet(k, gi int, mode setMode) {
	inst := mx.insts[gi]
	setSpan := mx.tr.reserve(mode.String(), mx.span, 0, time.Now())
	defer func() { mx.tr.finish(setSpan, time.Now()) }()
	if mode == memSet {
		defer debug.SetGCPercent(debug.SetGCPercent(memGOGC))
	}
	for j := range engines {
		e := engines[(k+j)%len(engines)]
		cellSpan := mx.tr.reserve("cell:"+e.String(), setSpan, 0, time.Now())
		var acc engineAcc
		for _, a := range algorithms {
			switch mode {
			case tracedSet:
				mx.tracedRun(gi, inst, e, a, cellSpan, &acc)
			case memSet:
				mx.memRun(gi, inst, e, a)
			default:
				mx.timedRun(gi, inst, e, a)
			}
		}
		mx.tr.finish(cellSpan, time.Now())
		if mode == tracedSet {
			acc.emit(e, mx.layers)
		}
	}
}

// timedRun is one untraced run: the end-to-end wall time.
func (mx *matrix) timedRun(gi int, inst *instance, e congestmst.Engine, a congestmst.Algorithm) {
	runtime.GC()
	start := time.Now()
	res, err := congestmst.RunContext(mx.ctx, inst.g, mx.options(e, a))
	wall := time.Since(start)
	mx.gate.check(gi, inst, e, a, res, err)
	c := cell{e, a}
	mx.walls[c] = append(mx.walls[c], wall.Seconds())
}

// A cell of a memory set runs up to memReps times, while its runs so
// far took under memCellFor. The peak of the fast engines moves most
// from run to run: over six Elkin runs on one random-sparse graph it
// ranged over 6 % on fiber and 12 % on async, against 3 % on lockstep.
// The median of a few runs is steadier, and repeating only the short
// runs keeps the cost down.
const (
	memReps    = 3
	memCellFor = 1500 * time.Millisecond
)

// memRun is a cell of a memory set: the end-to-end peak memory, each
// run from a collected heap.
func (mx *matrix) memRun(gi int, inst *instance, e congestmst.Engine, a congestmst.Algorithm) {
	c := cell{e, a}
	begin := time.Now()
	for reps := 0; reps < memReps && (reps == 0 || time.Since(begin) < memCellFor); reps++ {
		collect()
		t0 := mx.mem.Mark()
		res, err := congestmst.RunContext(mx.ctx, inst.g, mx.options(e, a))
		mx.peaks[c] = append(mx.peaks[c], mx.mem.PeakBetween(t0, mx.mem.Mark()))
		mx.gate.check(gi, inst, e, a, res, err)
	}
}

// probe is the bench-side Observer of a traced run: it timestamps the
// engine's public events and keeps the samples it is handed.
type probe struct {
	mu         sync.Mutex
	played     int64
	roundWall  int64
	firstStart time.Time
	last       time.Time
	phases     []phaseMark
	shards     []congestmst.ShardSample
	net        congestmst.NetSample
	windows    int64
	delivered  int64
	windowWall int64
}

type phaseMark struct {
	name  string
	round int64
	at    time.Time
}

func (p *probe) OnRound(ev congestmst.RoundEvent) {
	if ev.WallNanos == 0 {
		return // the end-of-run summary, not a played round
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.played == 0 {
		p.firstStart = now.Add(-time.Duration(ev.WallNanos))
	}
	p.played++
	p.roundWall += ev.WallNanos
	p.last = now
}

func (p *probe) OnPhase(ev congestmst.PhaseEvent) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.phases = append(p.phases, phaseMark{ev.Name, ev.Round, now})
}

func (p *probe) OnShardSample(s congestmst.ShardSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards = append(p.shards, s)
}

func (p *probe) OnNet(s congestmst.NetSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.net = s
}

// OnDelivery completes AsyncObserver; QuiesceEvents carry the counts.
func (p *probe) OnDelivery(congestmst.DeliveryEvent) {}

func (p *probe) OnQuiesce(ev congestmst.QuiesceEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.windows++
	p.delivered += ev.Delivered
	p.windowWall += ev.WallNanos
}

// stageBounds returns each Elkin stage's end (time and round), from
// the first PhaseEvent of each name; the last stage ends with the run.
func (p *probe) stageBounds(rounds int64) (ends []time.Time, endRounds []int64, ok bool) {
	for _, name := range coreStages[:len(coreStages)-1] {
		found := false
		for _, m := range p.phases {
			if m.name == name {
				ends, endRounds = append(ends, m.at), append(endRounds, m.round)
				found = true
				break
			}
		}
		if !found {
			return nil, nil, false
		}
	}
	return append(ends, p.last), append(endRounds, rounds), true
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// engineAcc sums one engine's traced runs over the algorithms of a set.
type engineAcc struct {
	setup, tail, roundWall, cpu       float64 // seconds
	played, rounds, messages          int64
	alloc                             uint64
	gcs                               uint32
	busy, busyMax, busyMean, shardCap float64 // seconds
	windows, delivered                int64
	windowWall                        float64
	net                               congestmst.NetSample
	rttMax                            float64
	stageS                            [4]float64
	stageRounds                       [4]int64
	stages                            bool
}

// tracedRun is one run with the probe attached, plus resource deltas
// around it and a timed verification of its output.
func (mx *matrix) tracedRun(gi int, inst *instance, e congestmst.Engine, a congestmst.Algorithm, parent int, acc *engineAcc) {
	p := &probe{}
	opts := mx.options(e, a)
	opts.Observer = p
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	res, err := congestmst.RunContext(mx.ctx, inst.g, opts)
	end := time.Now()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	mx.gate.check(gi, inst, e, a, res, err)
	if err != nil {
		return
	}
	c := cell{e, a}
	mx.traced[c] = append(mx.traced[c], end.Sub(start).Seconds())

	mx.runs++
	run := mx.runs
	runSpan := mx.tr.add("run:"+a.String(), parent, run, start, end)
	var ends []time.Time
	var endRounds []int64
	stagesOK := false
	if p.played > 0 {
		mx.tr.add("setup", runSpan, run, start, p.firstStart)
		roundsSpan := mx.tr.add("rounds", runSpan, run, p.firstStart, p.last)
		mx.tr.add("tail", runSpan, run, p.last, end)
		if a == congestmst.Elkin {
			ends, endRounds, stagesOK = p.stageBounds(res.Rounds)
		}
		from := p.firstStart
		for i := range ends {
			mx.tr.add("core."+coreStages[i], roundsSpan, run, from, ends[i])
			from = ends[i]
		}
		acc.setup += p.firstStart.Sub(start).Seconds()
		acc.tail += end.Sub(p.last).Seconds()
	}

	vs := time.Now()
	edges, verr := verify.MSTFromPorts(inst.g, res.PortsByVertex)
	if verr == nil {
		verr = verify.CheckEdges(inst.g, edges)
	}
	ve := time.Now()
	mx.tr.add("verify", parent, run, vs, ve)
	if verr != nil {
		mx.gate.fail("%s/%s graph %d: verify: %v", e, a, gi, verr)
	}
	mx.verify[a] = append(mx.verify[a], ve.Sub(vs).Seconds())

	acc.roundWall += float64(p.roundWall) / 1e9
	acc.cpu += (cpu1 - cpu0).Seconds()
	acc.played += p.played
	acc.rounds += res.Rounds
	acc.messages += res.Messages
	acc.alloc += m1.TotalAlloc - m0.TotalAlloc
	acc.gcs += m1.NumGC - m0.NumGC
	if n := len(p.shards); n > 0 {
		var sum, top float64
		for _, s := range p.shards {
			b := float64(s.BusyNanos) / 1e9
			sum += b
			top = max(top, b)
		}
		acc.busy += sum
		acc.busyMax += top
		acc.busyMean += sum / float64(n)
		acc.shardCap += float64(n) * end.Sub(start).Seconds()
	}
	acc.windows += p.windows
	acc.delivered += p.delivered
	acc.windowWall += float64(p.windowWall) / 1e9
	acc.net.BytesOut += p.net.BytesOut
	acc.net.FramesOut += p.net.FramesOut
	acc.net.Dials += p.net.Dials
	for _, r := range p.net.RTTs {
		acc.rttMax = max(acc.rttMax, float64(r.Nanos)/1e9)
	}
	if stagesOK && e == congestmst.Lockstep {
		acc.stages = true
		from, fromRound := p.firstStart, int64(0)
		for i := range ends {
			acc.stageS[i] += ends[i].Sub(from).Seconds()
			acc.stageRounds[i] += endRounds[i] - fromRound
			from, fromRound = ends[i], endRounds[i]
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emit appends this set's per-layer values for engine e to layers.
func (acc *engineAcc) emit(e congestmst.Engine, layers map[string][]float64) {
	put := func(name string, v float64) { layers[name] = append(layers[name], v) }
	mod, sfx := engineModule(e), "."+e.String()
	put("congestmst.setup_s"+sfx, acc.setup)
	put("congestmst.tail_s"+sfx, acc.tail)
	put(mod+".round_wall_s"+sfx, acc.roundWall)
	put(mod+".rounds_played"+sfx, float64(acc.played))
	put(mod+".played_frac"+sfx, ratio(float64(acc.played), float64(acc.rounds)))
	put(mod+".ns_per_round"+sfx, ratio(acc.roundWall*1e9, float64(acc.played)))
	put(mod+".ns_per_msg"+sfx, ratio(acc.roundWall*1e9, float64(acc.messages)))
	put(mod+".alloc_mb"+sfx, float64(acc.alloc)/mib)
	put(mod+".gc_cycles"+sfx, float64(acc.gcs))
	put(mod+".cpu_s"+sfx, acc.cpu)
	if e != congestmst.Lockstep {
		put(mod+".shard_busy_frac"+sfx, ratio(acc.busy, acc.shardCap))
		put(mod+".shard_skew"+sfx, ratio(acc.busyMax, acc.busyMean))
	}
	switch e {
	case congestmst.Async:
		put("parsim.async_windows", float64(acc.windows))
		put("parsim.async_delivered_per_window", ratio(float64(acc.delivered), float64(acc.windows)))
		put("parsim.async_window_wall_s", acc.windowWall)
	case congestmst.Cluster:
		put("nettrans.bytes_per_msg", ratio(float64(acc.net.BytesOut), float64(acc.messages)))
		put("nettrans.frames_per_round", ratio(float64(acc.net.FramesOut), float64(acc.rounds)))
		put("nettrans.bytes_out", float64(acc.net.BytesOut))
		put("nettrans.frames_out", float64(acc.net.FramesOut))
		put("nettrans.rtt_max_s", acc.rttMax)
		put("nettrans.dials", float64(acc.net.Dials))
	case congestmst.Lockstep:
		if acc.stages {
			for i, st := range coreStages {
				put("core.stage_s."+st, acc.stageS[i])
				put("core.stage_rounds."+st, float64(acc.stageRounds[i]))
			}
		}
	}
}

// runSeconds returns, per engine, the sum over algorithms of the
// median wall time, and the smallest sample count behind a median.
func runSeconds(walls map[cell][]float64, e congestmst.Engine) (float64, int) {
	var total float64
	n := -1
	for _, a := range algorithms {
		xs := walls[cell{e, a}]
		total += median(xs)
		if n < 0 || len(xs) < n {
			n = len(xs)
		}
	}
	return total, n
}

// peakMiB returns, per engine, the larger over algorithms of the median
// peak memory of its memory runs, and the smallest sample count behind
// a median.
func peakMiB(peaks map[cell][]float64, e congestmst.Engine) (float64, int) {
	var peak float64
	n := -1
	for _, a := range algorithms {
		xs := peaks[cell{e, a}]
		peak = max(peak, median(xs))
		if n < 0 || len(xs) < n {
			n = len(xs)
		}
	}
	return peak, n
}

// endToEnd adds the matrix's run_s and peak_mem_mb metrics to r.
func (mx *matrix) endToEnd(r *report) {
	for _, e := range engines {
		s, n := runSeconds(mx.walls, e)
		r.put("run_s."+e.String(), s, n)
		p, n := peakMiB(mx.peaks, e)
		r.put("peak_mem_mb."+e.String(), p, n)
	}
}

// perLayer adds the matrix's per-layer metrics to r: medians over the
// traced sets, the verification time, and each engine's tracing
// overhead (traced over untraced run time, minus one).
func (mx *matrix) perLayer(r *report) {
	for name, xs := range mx.layers {
		r.put(name, median(xs), len(xs))
	}
	var check float64
	n := 0
	for _, a := range algorithms {
		check += median(mx.verify[a])
		n += len(mx.verify[a])
	}
	r.put("verify.check_s", check, n)
	for _, e := range engines {
		plain, _ := runSeconds(mx.walls, e)
		traced, n := runSeconds(mx.traced, e)
		r.put("bench.trace_overhead."+e.String(), ratio(traced, plain)-1, n)
	}
	rounds := map[congestmst.Algorithm]string{congestmst.Elkin: "core", congestmst.GHS: "ghs"}
	for _, a := range algorithms {
		if s, ok := mx.gate.barrier[gateKey{0, a}]; ok {
			r.put(rounds[a]+".rounds", float64(s.Rounds), 1)
			r.put(rounds[a]+".messages", float64(s.Messages), 1)
		}
	}
}
