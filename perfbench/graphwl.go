package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"congestmst"
)

// graphScale sizes a graph workload.
type graphScale struct {
	spec    congestmst.GraphSpec // Seed is set per instance
	graphs  int                  // instances per run, cycled through the sets
	minSets int                  // sets played even when the time is up
}

// randomSparse is message-bound: about 30 messages per round, so the
// per-message path (send, bandwidth accounting, delivery, frame
// encoding, shard balance) dominates and per-round overhead is small.
var randomSparse = graphScale{
	spec:   congestmst.GraphSpec{Type: "random", N: 1024, M: 8192},
	graphs: 4, minSets: 3,
}

// lollipopHighD is round-bound: a 512-vertex tail on a 32-clique makes
// Elkin play about 160 000 rounds at under one message per round, so
// the barrier, the calendar, idle-round fast-forward and the cluster
// synchronizer dominate.
var lollipopHighD = graphScale{
	spec:   congestmst.GraphSpec{Type: "lollipop", Clique: 32, Tail: 512},
	graphs: 4, minSets: 3,
}

// Set-up is repeated for setupFor, and at least minSetups times, and
// setup_s is the median. On a shared 2-vCPU host the same set-up takes
// 15 ms for a fraction of a second, then 23 ms: a median over a whole
// second spans such phases where one over a few repetitions does not.
const (
	setupFor  = time.Second
	minSetups = 5
)

// subSeed derives the seed of input i from the workload seed
// (splitmix64), so inputs differ across i and across workload seeds.
func subSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runGraph runs a graph workload: every engine × algorithm cell on
// sc.graphs seeded instances, set after set for o.seconds.
func runGraph(ctx context.Context, o runOpts, sc graphScale) (*report, error) {
	r := newReport()
	mem, err := startMemSampler(workloadLimit(o.seconds))
	if err != nil {
		return nil, err
	}
	defer mem.Stop()
	tr := o.tr
	wl := tr.reserve("workload", 0, 0, time.Now())
	defer func() { tr.finish(wl, time.Now()) }()

	// Set-up is everything the workload computes before its first run:
	// every instance's generation, the CSR view the engines share and
	// the Kruskal reference. One graph alone takes well under a
	// millisecond on lollipop-highd, too little to time steadily, so a
	// sample is the whole of it. Each repetition starts on a collected
	// heap, as every timed run does; the last one's instances are the
	// ones measured.
	setupSpan := tr.reserve("setup", wl, 0, time.Now())
	var setup []float64
	var lt layerTimes
	var insts []*instance
	for begin := time.Now(); len(setup) < minSetups || time.Since(begin) < setupFor; {
		insts = nil // so the collection frees the last repetition's graphs
		runtime.GC()
		t0 := time.Now()
		if insts, err = buildInstances(o.seed, sc, &lt, tr, setupSpan); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	tr.finish(setupSpan, time.Now())

	gt := newGate()
	mx := newMatrix(ctx, o.seed, insts, mem, gt, tr, wl)
	mx.warmUp()
	// The untraced pass plays one memory set first; it counts against
	// the run's seconds, and the timed sets take what is left.
	begin := time.Now()
	minSets := sc.minSets
	if o.traced {
		minSets = max(4, minSets) // at least two untraced-traced pairs
	} else {
		mx.playSet(0, 0, memSet)
	}
	mx.loop(o.seconds-time.Since(begin), minSets, o.traced)

	var results []opResult
	var hitRatio float64
	if o.traced {
		if results, hitRatio, err = serviceProbe(ctx, o.seed, insts[0], &lt, tr, wl); err != nil {
			return nil, err
		}
		gt.record(results)
	}
	gt.finish()
	r.absorb(gt)
	r.Rounds, r.Messages = gt.counts()
	if err := mem.Err(); err != nil {
		return nil, err
	}
	if !o.traced {
		r.put("setup_s", median(setup), len(setup))
		mx.endToEnd(r)
		return r, nil
	}
	mx.perLayer(r)
	lt.put(r)
	serviceLayers(r, results, hitRatio, mem.LateMax())
	return r, nil
}

// layerTimes collects the set-up calls timed for the per-layer metrics.
type layerTimes struct {
	gen, csr, kruskal, start []float64 // seconds
}

func (lt *layerTimes) put(r *report) {
	r.put("graph.gen_s", median(lt.gen), len(lt.gen))
	r.put("graph.csr_s", median(lt.csr), len(lt.csr))
	r.put("graph.kruskal_s", median(lt.kruskal), len(lt.kruskal))
	r.put("service.start_s", median(lt.start), len(lt.start))
}

// prepareGraph builds the graph of spec with its CSR view and Kruskal
// reference, timing each step into lt.
func prepareGraph(spec congestmst.GraphSpec, lt *layerTimes, tr *tracer, parent int) (*instance, error) {
	t0 := time.Now()
	g, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("building %+v: %w", spec, err)
	}
	t1 := time.Now()
	g.CSR()
	t2 := time.Now()
	ref, err := g.Kruskal()
	if err != nil {
		return nil, fmt.Errorf("reference MST of %+v: %w", spec, err)
	}
	t3 := time.Now()
	tr.add("graph.gen", parent, 0, t0, t1)
	tr.add("graph.csr", parent, 0, t1, t2)
	tr.add("graph.kruskal", parent, 0, t2, t3)
	lt.gen = append(lt.gen, t1.Sub(t0).Seconds())
	lt.csr = append(lt.csr, t2.Sub(t1).Seconds())
	lt.kruskal = append(lt.kruskal, t3.Sub(t2).Seconds())
	return &instance{spec: spec, g: g, ref: ref}, nil
}

// buildInstances prepares the sc.graphs seeded instances of a run.
func buildInstances(seed uint64, sc graphScale, lt *layerTimes, tr *tracer, parent int) ([]*instance, error) {
	insts := make([]*instance, sc.graphs)
	for i := range insts {
		spec := sc.spec
		spec.Seed = subSeed(seed, uint64(i))
		var err error
		if insts[i], err = prepareGraph(spec, lt, tr, parent); err != nil {
			return nil, err
		}
	}
	return insts, nil
}
